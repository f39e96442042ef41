module Ir = Drd_ir.Ir
module Iset = Pointsto.Iset

(* The interthread call graph (ICG) and the two must-analyses computed
   over it (paper Sections 5.2 and 5.3):

   - ICG nodes are methods and synchronized regions (blocks or
     synchronized-method bodies); call edges and region-entry edges are
     the intrathread edges, thread [start] edges the interthread edges.
   - [MustSync] — the set of locks (abstract objects) that are must-held
     at every statement of a node — is a decreasing dataflow fixpoint
     over intrathread edges, with Gen from the must points-to of each
     region's lock;
   - [MustThread] — the set of must thread objects a statement can only
     be executed by — intersects, over the thread roots reaching the
     statement's method along intrathread edges, the must points-to of
     each root's [this]. *)

(* [None] plays the role of ⊤ (the unconstrained "all objects" set). *)
type lat = Iset.t option

let meet (a : lat) (b : lat) : lat =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (Iset.inter a b)

let lat_equal (a : lat) (b : lat) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Iset.equal a b
  | _ -> false

(* ICG nodes are dense ints: method [m]'s node is [m]; its sync region
   [r] is node [region_base.(m) + r]. *)
type t = {
  pt : Pointsto.t;
  must : Must.t;
  region_base : int array; (* by method id *)
  so_out : lat array; (* by node *)
  may_out : Iset.t array;
      (* MaySync: the union-over-paths dual of MustSync, used by the
         link-time trace specializer — a site whose may-held and
         must-held locksets coincide has a compile-time-pinned lockset *)
  must_thread : lat array; (* by method id *)
}

let rec last = function [ x ] -> x | _ :: l -> last l | [] -> invalid_arg "last"

let node_of_instr region_base mid (i : Ir.instr) =
  match i.Ir.i_sync with [] -> mid | sync -> region_base.(mid) + last sync

(* The (region, lock reg, enter instr) triples of a method's regions. *)
let regions_of_mir (m : Ir.mir) =
  let acc = ref [] in
  Ir.iter_instrs m (fun _ i ->
      match i.Ir.i_op with
      | Ir.MonitorEnter (lock, region) ->
          acc := (region, lock, i) :: !acc
      | _ -> ());
  !acc

(* One past the largest region id a method mentions. *)
let n_regions (m : Ir.mir) =
  let n = ref 0 in
  Ir.iter_instrs m (fun _ i ->
      List.iter (fun r -> if r >= !n then n := r + 1) i.Ir.i_sync;
      match i.Ir.i_op with
      | Ir.MonitorEnter (_, r) | Ir.MonitorExit (_, r) -> if r >= !n then n := r + 1
      | _ -> ());
  !n

let compute (pt : Pointsto.t) (must : Must.t) : t =
  let prog = pt.Pointsto.prog in
  let nmeth = Ir.n_mirs prog in
  let main = Option.map (fun m -> m.Ir.mir_id) (Ir.find_mir prog prog.Ir.p_main) in
  let is_root = Array.make nmeth false in
  Option.iter (fun mid -> is_root.(mid) <- true) main;
  let roots = ref (Option.to_list main) in
  Pointsto.iter_reachable pt (fun m ->
      if Pointsto.start_sites_of pt m.Ir.mir_id <> [] then begin
        is_root.(m.Ir.mir_id) <- true;
        roots := m.Ir.mir_id :: !roots
      end);
  let roots = List.rev !roots in
  let region_base = Array.make nmeth 0 in
  let nnodes = ref nmeth in
  Ir.iter_mirs prog (fun m ->
      region_base.(m.Ir.mir_id) <- !nnodes;
      nnodes := !nnodes + n_regions m);
  let nnodes = !nnodes in
  let node_of_instr = node_of_instr region_base in
  (* Instruction lookup for call sites. *)
  let instr_at = Ir.instr_lookup prog.Ir.p_mirs in
  (* Build node lists, Gen sets and intrathread predecessor edges. *)
  let gen = Array.make nnodes Iset.empty in
  let gen_may = Array.make nnodes Iset.empty in
  let preds = Array.make nnodes [] in
  let add_pred n p = if not (List.memq p preds.(n)) then preds.(n) <- p :: preds.(n) in
  let nodes = ref [] in
  Pointsto.iter_reachable pt (fun m ->
      let mid = m.Ir.mir_id in
      nodes := mid :: !nodes;
      (* Region nodes: Gen from the must points-to of the lock at the
         region's monitorenter; predecessor is the node the enter
         instruction lives in. *)
      List.iter
        (fun (region, lock, (i : Ir.instr)) ->
          let n = region_base.(mid) + region in
          nodes := n :: !nodes;
          gen.(n) <- Must.must_pt_reg must mid lock;
          gen_may.(n) <- Pointsto.pts_reg pt mid lock;
          add_pred n (node_of_instr mid i))
        (regions_of_mir m);
      (* Method node: predecessors are the nodes containing its call
         sites. *)
      List.iter
        (fun (cs : Pointsto.call_site) ->
          match instr_at cs.Pointsto.cs_mid cs.Pointsto.cs_iid with
          | Some i -> add_pred mid (node_of_instr cs.Pointsto.cs_mid i)
          | None -> ())
        (Pointsto.callers_of pt mid));
  let nodes = !nodes in
  let is_root_node n = n < nmeth && is_root.(n) in
  (* Decreasing fixpoint: SO_out(n) = SO_in(n) ∪ Gen(n);
     SO_in = ∩ preds SO_out, with thread roots and main pinned to ∅. *)
  let so_out : lat array = Array.make nnodes None in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        let so_in =
          if is_root_node n then Some Iset.empty
          else
            match preds.(n) with
            | [] ->
                (* No known intrathread predecessor: unreachable from an
                   entry; keep ⊤. *)
                None
            | ps -> List.fold_left (fun acc p -> meet acc so_out.(p)) None ps
        in
        let out =
          match so_in with
          | None -> None
          | Some s -> Some (Iset.union s gen.(n))
        in
        if not (lat_equal out so_out.(n)) then begin
          so_out.(n) <- out;
          changed := true
        end)
      nodes
  done;
  (* MaySync — the increasing dual: MAYSO_out(n) = MAYSO_in(n) ∪
     Gen_may(n) with Gen_may from the full may points-to of each
     region's lock, MAYSO_in = ∪ preds MAYSO_out, roots start with ∅.
     Bottom is ∅ (an unreachable node stays empty; its statements never
     execute, and the specializer never consults them — surviving trace
     sites live in reachable methods only). *)
  let may_out = Array.make nnodes Iset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        let may_in =
          if is_root_node n then Iset.empty
          else
            List.fold_left (fun acc p -> Iset.union acc may_out.(p)) Iset.empty preds.(n)
        in
        let out = Iset.union may_in gen_may.(n) in
        if not (Iset.equal out may_out.(n)) then begin
          may_out.(n) <- out;
          changed := true
        end)
      nodes
  done;
  (* MustThread: intrathread (call-edge) reachability from each root. *)
  let reached_by = Array.make nmeth [] in
  let note m root =
    if List.memq root reached_by.(m) then false
    else begin
      reached_by.(m) <- root :: reached_by.(m);
      true
    end
  in
  List.iter
    (fun root ->
      let rec bfs m =
        if note m root then
          Ir.iter_instrs prog.Ir.p_mirs.(m) (fun _ i ->
              match i.Ir.i_op with
              | Ir.Call _ -> List.iter bfs (Pointsto.call_targets_of pt m i.Ir.i_id)
              | _ -> ())
      in
      bfs root)
    roots;
  let must_pt_this root =
    if Some root = main then Iset.singleton pt.Pointsto.main_obj
    else Must.must_pt_reg must root 0
  in
  let must_thread = Array.make nmeth None in
  Pointsto.iter_reachable pt (fun m ->
      must_thread.(m.Ir.mir_id) <-
        (match reached_by.(m.Ir.mir_id) with
        | [] -> None (* unreachable from any root: ⊤ *)
        | rs ->
            List.fold_left
              (fun acc root -> meet acc (Some (must_pt_this root)))
              None rs));
  { pt; must; region_base; so_out; may_out; must_thread }

(* MustSync of a statement of method [mid]: the locks must-held at it. *)
let must_sync t mid (i : Ir.instr) : lat = t.so_out.(node_of_instr t.region_base mid i)

(* MaySync of a statement: every lock that can be held at it on some
   path.  ∅ for nodes the ICG never saw (unreachable code). *)
let may_sync t mid (i : Ir.instr) : Iset.t =
  t.may_out.(node_of_instr t.region_base mid i)

let must_thread t mid : lat = t.must_thread.(mid)

(* The paper's predicates (Equations 3 and 4).  ⊤ means "no constraint
   known but the code is unreachable"; two unreachable statements
   trivially cannot race, so ⊤ ∩ anything is treated as non-empty. *)
let lat_inter_nonempty (a : lat) (b : lat) =
  match (a, b) with
  | None, _ | _, None -> true
  | Some a, Some b -> not (Iset.disjoint a b)

let must_same_thread t mx my =
  lat_inter_nonempty (must_thread t mx) (must_thread t my)

let must_common_sync t mx ix my iy =
  lat_inter_nonempty (must_sync t mx ix) (must_sync t my iy)
