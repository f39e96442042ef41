module Ir = Drd_ir.Ir
module Dominance = Drd_ir.Dominance

(* Single-instance statements and the conservative must points-to
   analysis built on them (paper Section 5.3).

   A statement is single-instance when it executes at most once in any
   execution: its block is outside every natural loop of its method and
   the method itself is single-instance — called from exactly one
   single-instance call site ([main] is the base case; thread [run]
   methods count their start sites as call sites; any recursion or
   virtual fan-in disqualifies).

   An abstract object is single-instance when its allocation site is;
   [MustPT(x) = {o}] when the may points-to set of [x] is exactly one
   single-instance object. *)

type t = {
  pt : Pointsto.t;
  single_method : int array; (* by method id: -1 unknown, 0 no, 1 yes *)
  in_loop : bool array array; (* [method id].(iid) -> in a loop *)
}

let compute_in_loop (prog : Ir.program) =
  Array.map
    (fun (m : Ir.mir) ->
      let blocks = Array.make (Ir.n_blocks m) false in
      List.iter
        (fun (_, body) -> List.iter (fun b -> blocks.(b) <- true) body)
        (Dominance.natural_loops m (Dominance.compute m));
      (* An id with no instruction reads as "in a loop", the safe side. *)
      let row = Array.make m.Ir.mir_next_iid true in
      Ir.iter_blocks m (fun b ->
          let inl = blocks.(b.Ir.b_label) in
          List.iter (fun (i : Ir.instr) -> row.(i.Ir.i_id) <- inl) b.Ir.b_instrs);
      row)
    prog.Ir.p_mirs

let create (pt : Pointsto.t) : t =
  let prog = pt.Pointsto.prog in
  {
    pt;
    single_method = Array.make (Ir.n_mirs prog) (-1);
    in_loop = compute_in_loop prog;
  }

let stmt_in_loop t mid iid =
  let row = t.in_loop.(mid) in
  iid < 0 || iid >= Array.length row || row.(iid)

let is_main t mid =
  t.pt.Pointsto.prog.Ir.p_mirs.(mid).Ir.mir_key = t.pt.Pointsto.prog.Ir.p_main

(* Memoized with cycle detection: a method on the current resolution
   path is recursive, hence not single. *)
let rec single_method ?(visiting = []) t mid =
  match t.single_method.(mid) with
  | 1 -> true
  | 0 -> false
  | _ ->
      if List.memq mid visiting then false
      else begin
        let visiting = mid :: visiting in
        let result =
          if is_main t mid then true
          else
            let callers = Pointsto.callers_of t.pt mid in
            let starters = Pointsto.start_sites_of t.pt mid in
            match (callers, starters) with
            | [ c ], [] | [], [ c ] ->
                single_method ~visiting t c.Pointsto.cs_mid
                && not (stmt_in_loop t c.Pointsto.cs_mid c.Pointsto.cs_iid)
            | _ -> false
        in
        t.single_method.(mid) <- (if result then 1 else 0);
        result
      end

let single_stmt t mid iid = single_method t mid && not (stmt_in_loop t mid iid)

(* Is this abstract object single-instance? *)
let single_obj t ao =
  let o = Pointsto.obj t.pt ao in
  match o.Pointsto.ao_kind with
  | Pointsto.Aclassobj _ | Pointsto.Amain -> true
  | Pointsto.Aobj _ | Pointsto.Aarr _ -> (
      match o.Pointsto.ao_site with
      | Some (mid, iid) -> single_stmt t mid iid
      | None -> false)

(* Must points-to of register [reg] of method [mid]: the singleton may
   set when its object is single-instance, empty otherwise. *)
let must_pt_reg t mid reg =
  let may = Pointsto.pts_reg t.pt mid reg in
  if Pointsto.Iset.cardinal may = 1 && single_obj t (Pointsto.Iset.choose may)
  then may
  else Pointsto.Iset.empty
