type race = { loc : Event.loc_id; current : Event.t; prior : Trie.prior }

let pp_race names ppf (r : race) =
  let open Event in
  Fmt.pf ppf
    "@[<v2>DATARACE on %s:@ current: T%d %a at %s holding %a@ earlier: %a %a \
     at %s holding %a@]"
    (Names.loc_name names r.loc) r.current.thread pp_kind r.current.kind
    (Names.site_name names r.current.site)
    (Names.pp_lockset names) (Event.lockset r.current) pp_thread_info
    r.prior.Trie.p_thread pp_kind r.prior.Trie.p_kind
    (Names.site_name names r.prior.Trie.p_site)
    (Names.pp_lockset names)
    (Lockset_id.set_of r.prior.Trie.p_locks)

type collector = {
  mutable acc : race list; (* reverse order *)
  seen : unit Int_tbl.t;
}

let collector () = { acc = []; seen = Int_tbl.create 32 () }

let reset c =
  c.acc <- [];
  Int_tbl.clear c.seen

let add c r =
  if not (Int_tbl.mem c.seen r.loc) then begin
    Int_tbl.replace c.seen r.loc ();
    c.acc <- r :: c.acc
  end

let races c = List.rev c.acc
let count c = Int_tbl.length c.seen

(* The newest [count c - i] races sit at the head of [acc]. *)
let races_from c i =
  let rec take n l acc =
    match l with r :: tl when n > 0 -> take (n - 1) tl (r :: acc) | _ -> acc
  in
  take (count c - i) c.acc []

let racy_locs c = List.rev_map (fun r -> r.loc) c.acc

let pp names ppf c =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list (pp_race names)) (races c)
