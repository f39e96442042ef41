type state = Owned of Event.thread_id | Shared

type t = { tbl : state Int_tbl.t; mutable shared : int }

type verdict = Owned_skip | Became_shared | Already_shared

let create () = { tbl = Int_tbl.create 512 Shared; shared = 0 }

(* [Int_tbl.clear] keeps the grown arrays, so a reused table never
   re-resizes on the next execution. *)
let reset o =
  Int_tbl.clear o.tbl;
  o.shared <- 0

(* [find] + [Not_found] rather than an option: this runs once per
   non-cached access event and must not allocate. *)
let check o ~thread ~loc =
  match Int_tbl.find o.tbl loc with
  | Owned t when t = thread -> Owned_skip
  | Owned _ ->
      Int_tbl.replace o.tbl loc Shared;
      o.shared <- o.shared + 1;
      Became_shared
  | Shared -> Already_shared
  | exception Not_found ->
      Int_tbl.replace o.tbl loc (Owned thread);
      Owned_skip

let forget o loc =
  match Int_tbl.find o.tbl loc with
  | exception Not_found -> ()
  | st ->
      if st = Shared then o.shared <- o.shared - 1;
      Int_tbl.remove o.tbl loc

let is_shared o loc =
  match Int_tbl.find o.tbl loc with
  | Shared -> true
  | Owned _ | (exception Not_found) -> false

let owner o loc =
  match Int_tbl.find o.tbl loc with
  | Owned t -> Some t
  | Shared | (exception Not_found) -> None

let shared_count o = o.shared
let tracked_count o = Int_tbl.length o.tbl
