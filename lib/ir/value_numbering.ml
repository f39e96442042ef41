module Ast = Drd_lang.Ast
(* Dominance-based global value numbering on the side-SSA form.  Two
   uses with the same value number are guaranteed to hold the same value
   in every execution — the property the static weaker-than analysis
   needs for its [valnum(o_i) = valnum(o_j)] check (paper Section 6.1).

   Pure, deterministic operations (constants, copies, arithmetic, array
   length, class objects) are numbered by congruence; memory reads,
   allocations and calls get fresh numbers.  Phi values get the common
   number of their arguments when all incoming values are already
   numbered and agree (which handles the join of identical values), and
   a fresh number otherwise — in particular any phi fed by a back edge
   is fresh, which is the conservative choice. *)

type t = {
  ssa : Ssa.t;
  vn_of_value : int array; (* SSA value -> value number *)
}

type key =
  | Kconst of Ir.const
  | Kbinop of Ast.binop * int * int
  | Kunop of Ast.unop * int
  | Klen of int
  | Kclassobj of string

let compute (m : Ir.mir) (ssa : Ssa.t) : t =
  let vn_of_value = Array.make (max ssa.Ssa.nvalues 1) (-1) in
  let next = ref 0 in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let table : (key, int) Hashtbl.t = Hashtbl.create 256 in
  let keyed k =
    match Hashtbl.find_opt table k with
    | Some vn -> vn
    | None ->
        let vn = fresh () in
        Hashtbl.add table k vn;
        vn
  in
  (* Instruction table by id for def-site lookup. *)
  let instr_by_id = Array.make m.Ir.mir_next_iid None in
  Ir.iter_instrs m (fun _ i -> instr_by_id.(i.Ir.i_id) <- Some i);
  let vn_use iid r =
    match Ssa.value_of_use ssa iid r with
    | Some v when vn_of_value.(v) >= 0 -> Some vn_of_value.(v)
    | _ -> None
  in
  (* Normalize commutative operators. *)
  let norm_binop op a b =
    match (op : Ast.binop) with
    | Ast.Add | Ast.Mul | Ast.Eq | Ast.Ne -> if a <= b then (a, b) else (b, a)
    | _ -> (a, b)
  in
  let number_value v =
    match Ssa.def_site_of ssa v with
    | Ssa.Dparam _ -> fresh ()
    | Ssa.Dphi (b, r) -> (
        let args = Ssa.phi_args_of ssa b r in
        match args with
        | (_, first) :: rest
          when vn_of_value.(first) >= 0
               && List.for_all
                    (fun (_, a) ->
                      vn_of_value.(a) >= 0
                      && vn_of_value.(a) = vn_of_value.(first))
                    rest ->
            vn_of_value.(first)
        | _ -> fresh ())
    | Ssa.Dinstr iid -> (
        match instr_by_id.(iid) with
        | None -> fresh ()
        | Some i -> (
            match i.Ir.i_op with
            | Ir.Const (_, c) -> keyed (Kconst c)
            | Ir.Move (_, s) -> (
                match vn_use iid s with Some vn -> vn | None -> fresh ())
            | Ir.Binop (op, _, l, r) -> (
                match (vn_use iid l, vn_use iid r) with
                | Some a, Some b ->
                    let a, b = norm_binop op a b in
                    keyed (Kbinop (op, a, b))
                | _ -> fresh ())
            | Ir.Unop (op, _, s) -> (
                match vn_use iid s with
                | Some a -> keyed (Kunop (op, a))
                | None -> fresh ())
            | Ir.ArrLen (_, a) -> (
                (* Array lengths are immutable after allocation. *)
                match vn_use iid a with
                | Some va -> keyed (Klen va)
                | None -> fresh ())
            | Ir.ClassObj (_, c) -> keyed (Kclassobj c)
            | _ -> fresh ()))
  in
  (* Number values in dominator-tree preorder so that uses are numbered
     before (forward) defs that consume them.  SSA value ids were
     allocated in exactly that walk order, so ascending id order works. *)
  for v = 0 to ssa.Ssa.nvalues - 1 do
    vn_of_value.(v) <- number_value v
  done;
  { ssa; vn_of_value }

(* Value number of the use of register [r] at instruction [iid]. *)
let vn_of_use t iid r =
  match Ssa.value_of_use t.ssa iid r with
  | Some v when t.vn_of_value.(v) >= 0 -> Some t.vn_of_value.(v)
  | _ -> None
