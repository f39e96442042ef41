module Ir = Drd_ir.Ir
module Iset = Pointsto.Iset
open Drd_core

(* A statement is [(method id, iid)]; per-statement tables are arrays
   indexed by [iid] inside one array per method. *)
type t = {
  pt : Pointsto.t;
  must : Must.t;
  icg : Icg.t;
  ts : Thread_spec.t;
  set : bool array array; (* [method id].(iid): in the race set *)
  peers : (int * int) list array array;
      (* statement -> statically possible racing statements (capped),
         newest first *)
  mutable st : stats;
}

and stats = {
  reachable_methods : int;
  access_statements : int;
  in_race_set : int;
  thread_specific_excluded : int;
  abstract_objects : int;
}

type access = {
  a_mid : int; (* method *)
  a_instr : Ir.instr;
  a_kind : Event.kind;
  a_base : Iset.t option; (* points-to set of the base; None for statics *)
}

type group = Gfield of string * int | Gstatic of int | Garray

(* Access statements of reachable methods, grouped by the location they
   touch.  Each group's list is newest first, and group order never
   matters: a statement's peers all come from its own group. *)
let accesses_of (pt : Pointsto.t) : (group, access list ref) Hashtbl.t =
  let groups = Hashtbl.create 64 in
  let add g a =
    let r =
      match Hashtbl.find_opt groups g with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.add groups g r;
          r
    in
    r := a :: !r
  in
  Pointsto.iter_reachable pt (fun m ->
      let mid = m.Ir.mir_id in
      Ir.iter_instrs m (fun _ i ->
          let acc g kind base =
            add g { a_mid = mid; a_instr = i; a_kind = kind; a_base = base }
          in
          let base r = Some (Pointsto.pts_reg pt mid r) in
          match i.Ir.i_op with
          | Ir.GetField (_, o, fm) ->
              acc (Gfield (fm.Ir.fm_class, fm.Ir.fm_index)) Event.Read (base o)
          | Ir.PutField (o, fm, _) ->
              acc (Gfield (fm.Ir.fm_class, fm.Ir.fm_index)) Event.Write (base o)
          | Ir.GetStatic (_, sm) -> acc (Gstatic sm.Ir.sm_slot) Event.Read None
          | Ir.PutStatic (sm, _) -> acc (Gstatic sm.Ir.sm_slot) Event.Write None
          | Ir.ALoad (_, a, _) -> acc Garray Event.Read (base a)
          | Ir.AStore (a, _, _) -> acc Garray Event.Write (base a)
          | _ -> ()));
  groups

let compute (prog : Ir.program) : t =
  let pt = Pointsto.solve prog in
  let must = Must.create pt in
  let icg = Icg.compute pt must in
  let ts = Thread_spec.compute pt in
  let groups = accesses_of pt in
  let set = Array.map (fun m -> Array.make m.Ir.mir_next_iid false) prog.Ir.p_mirs in
  let peers = Array.map (fun m -> Array.make m.Ir.mir_next_iid []) prog.Ir.p_mirs in
  let in_set = ref 0 in
  let max_peers = 16 in
  let mark (mid, iid) =
    if not set.(mid).(iid) then begin
      set.(mid).(iid) <- true;
      incr in_set
    end
  in
  let add_peer (amid, aiid) b =
    let r = peers.(amid).(aiid) in
    if List.length r < max_peers && not (List.mem b r) then
      peers.(amid).(aiid) <- b :: r
  in
  let n_access = ref 0 in
  let n_ts_excluded = ref 0 in
  Hashtbl.iter (fun _ r -> n_access := !n_access + List.length !r) groups;
  (* An access is excluded when it touches a thread-specific field, or
     when every object its base can point to is thread-specific
     (Section 5.4's object rule — what proves a thread's private copies
     and scratch arrays race-free). *)
  let base_thread_specific a =
    match a.a_base with
    | None -> false
    | Some objs ->
        (not (Iset.is_empty objs))
        && Iset.for_all (Thread_spec.is_specific_object ts) objs
  in
  let may_conflict x y =
    match (x.a_base, y.a_base) with
    | None, None -> true (* same static slot by grouping *)
    | Some bx, Some by -> not (Iset.disjoint bx by)
    | _ -> false
  in
  let is_may_race x y =
    (x.a_kind = Event.Write || y.a_kind = Event.Write)
    && may_conflict x y
    && (not (Icg.must_same_thread icg x.a_mid y.a_mid))
    && not (Icg.must_common_sync icg x.a_mid x.a_instr y.a_mid y.a_instr)
  in
  Hashtbl.iter
    (fun _ r ->
      let accs =
        List.filter
          (fun a ->
            let excluded =
              Thread_spec.access_is_thread_specific ts a.a_instr
              || base_thread_specific a
            in
            if excluded then incr n_ts_excluded;
            not excluded)
          !r
        |> Array.of_list
      in
      let n = Array.length accs in
      for i = 0 to n - 1 do
        for j = i to n - 1 do
          let x = accs.(i) and y = accs.(j) in
          if is_may_race x y then begin
            let kx = (x.a_mid, x.a_instr.Ir.i_id)
            and ky = (y.a_mid, y.a_instr.Ir.i_id) in
            mark kx;
            mark ky;
            add_peer kx ky;
            if kx <> ky then add_peer ky kx
          end
        done
      done)
    groups;
  let st =
    {
      reachable_methods = Pointsto.n_reachable pt;
      access_statements = !n_access;
      in_race_set = !in_set;
      thread_specific_excluded = !n_ts_excluded;
      abstract_objects = Pointsto.n_objs pt;
    }
  in
  { pt; must; icg; ts; set; peers; st }

let may_race t (m : Ir.mir) (i : Ir.instr) =
  let row = t.set.(m.Ir.mir_id) in
  i.Ir.i_id < Array.length row && row.(i.Ir.i_id)

(* The statically-possible racing statements of an access statement —
   the debugging aid of Section 2.6 ("our static datarace analyzer can
   provide a (usually small) set of source locations whose execution
   could potentially race with e").  Capped at 16 peers. *)
let peers_of t ~meth ~iid =
  match Ir.find_mir t.pt.Pointsto.prog meth with
  | Some m when iid >= 0 && iid < Array.length t.peers.(m.Ir.mir_id) ->
      List.rev_map
        (fun (mid, iid) -> (t.pt.Pointsto.prog.Ir.p_mirs.(mid).Ir.mir_key, iid))
        t.peers.(m.Ir.mir_id).(iid)
  | _ -> []

let stats t = t.st

let pointsto t = t.pt

let icg t = t.icg

let must t = t.must

let thread_spec t = t.ts

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "@[<v>reachable methods:        %d@ access statements:        %d@ in \
     static race set:       %d@ thread-specific excluded: %d@ abstract \
     objects:         %d@]"
    s.reachable_methods s.access_statements s.in_race_set
    s.thread_specific_excluded s.abstract_objects
