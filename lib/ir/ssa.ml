(* SSA construction "on the side": the IR is not rewritten; instead we
   compute, for every register use at every instruction, the SSA value
   (definition instance) that reaches it.  Phi values are placed with
   the standard iterated-dominance-frontier algorithm (semi-pruned: only
   for registers live across some block boundary) and renaming is a
   dominator-tree walk.  The result feeds dominance-based value
   numbering (paper Section 6.2: "conversion to SSA form is performed,
   during which the dominance relation is computed"). *)

type value = int (* SSA value id *)

type def_site =
  | Dparam of int (* register holding a parameter at entry *)
  | Dinstr of int (* instruction id *)
  | Dphi of int * int (* block, register *)

module Int_tbl = Drd_core.Int_tbl

(* Per-(instruction, register) and per-(block, register) facts live in
   int-keyed tables under the dense keys [iid * nregs + reg] and
   [block * nregs + reg]. *)
type t = {
  dom : Dominance.t;
  nregs : int;
  nvalues : int;
  def_site : def_site array; (* SSA value -> its definition site *)
  use_val : value Int_tbl.t; (* (instr id, reg) -> value *)
  phi_args : (int * value) list Int_tbl.t;
      (* (block, reg) -> (pred block, incoming value) list *)
  phis_of_block : int list array; (* block -> regs with phis *)
}

let compute (m : Ir.mir) : t =
  let dom = Dominance.compute m in
  let nregs = m.Ir.mir_nregs in
  let nblocks = Ir.n_blocks m in
  (* Definition blocks per register. *)
  let def_blocks = Array.make nregs [] in
  for r = 0 to m.Ir.mir_nparams - 1 do
    def_blocks.(r) <- [ m.Ir.mir_entry ]
  done;
  Ir.iter_blocks m (fun b ->
      if Dominance.reachable dom b.Ir.b_label then
        List.iter
          (fun (i : Ir.instr) ->
            match Ir.def i.Ir.i_op with
            | Some d -> def_blocks.(d) <- b.Ir.b_label :: def_blocks.(d)
            | None -> ())
          b.Ir.b_instrs);
  (* Semi-pruned placement: a register no block reads before writing it
     is never live across a block boundary, so none of its phis could
     reach a use, and it gets none.  That skips most temporaries; every
     use still sees the same reaching definition. *)
  let global = Array.make nregs false in
  let written = Array.make nregs (-1) in
  Ir.iter_blocks m (fun b ->
      let l = b.Ir.b_label in
      let read r = if written.(r) <> l then global.(r) <- true in
      List.iter
        (fun (i : Ir.instr) ->
          List.iter read (Ir.uses i.Ir.i_op);
          match Ir.def i.Ir.i_op with Some d -> written.(d) <- l | None -> ())
        b.Ir.b_instrs;
      List.iter read (Ir.term_uses b.Ir.b_term));
  (* Phi placement via iterated dominance frontiers, one register at a
     time.  [placed.(b) = r] and [queued.(b) = r] mark block [b] for the
     register being placed, so two arrays serve every register without
     clearing. *)
  let df = Dominance.frontiers m dom in
  let phis_of_block = Array.make nblocks [] in
  let placed = Array.make nblocks (-1) and queued = Array.make nblocks (-1) in
  for r = 0 to nregs - 1 do
    let work = ref (if global.(r) then def_blocks.(r) else []) in
    List.iter (fun b -> queued.(b) <- r) !work;
    while !work <> [] do
      match !work with
      | [] -> ()
      | b :: rest ->
          work := rest;
          List.iter
            (fun f ->
              if placed.(f) <> r then begin
                placed.(f) <- r;
                phis_of_block.(f) <- r :: phis_of_block.(f);
                if queued.(f) <> r then begin
                  queued.(f) <- r;
                  work := f :: !work
                end
              end)
            df.(b)
    done
  done;
  (* Renaming. *)
  let nvalues = ref 0 in
  let def_sites = ref [] in
  let fresh_value site =
    let v = !nvalues in
    incr nvalues;
    def_sites := site :: !def_sites;
    v
  in
  let stacks = Array.make nregs [] in
  let use_val = Int_tbl.create m.Ir.mir_next_iid 0 in
  let phi_args = Int_tbl.create nblocks [] in
  (* Parameters are defined at entry. *)
  let param_vals =
    List.init m.Ir.mir_nparams (fun r -> (r, fresh_value (Dparam r)))
  in
  let rec walk b =
    let pushed = ref [] in
    let push r v =
      stacks.(r) <- v :: stacks.(r);
      pushed := r :: !pushed
    in
    (* Phis of this block define first. *)
    List.iter (fun r -> push r (fresh_value (Dphi (b, r)))) phis_of_block.(b);
    if b = m.Ir.mir_entry then
      List.iter (fun (r, v) -> push r v) param_vals;
    let blk = Ir.block m b in
    List.iter
      (fun (i : Ir.instr) ->
        List.iter
          (fun r ->
            match stacks.(r) with
            | v :: _ -> Int_tbl.replace use_val ((i.Ir.i_id * nregs) + r) v
            | [] -> ())
          (Ir.uses i.Ir.i_op);
        match Ir.def i.Ir.i_op with
        | Some d -> push d (fresh_value (Dinstr i.Ir.i_id))
        | None -> ())
      blk.Ir.b_instrs;
    (* Record phi arguments flowing along the edges to successors. *)
    List.iter
      (fun s ->
        List.iter
          (fun r ->
            match stacks.(r) with
            | v :: _ ->
                let k = (s * nregs) + r in
                let cur = try Int_tbl.find phi_args k with Not_found -> [] in
                Int_tbl.replace phi_args k ((b, v) :: cur)
            | [] -> ())
          phis_of_block.(s))
      (Ir.successors m b);
    List.iter walk dom.Dominance.children.(b);
    List.iter (fun r -> stacks.(r) <- List.tl stacks.(r)) !pushed
  in
  walk m.Ir.mir_entry;
  {
    dom;
    nregs;
    nvalues = !nvalues;
    def_site = Array.of_list (List.rev !def_sites);
    use_val;
    phi_args;
    phis_of_block;
  }

(* The SSA value reaching the use of register [r] at instruction [iid];
   [None] for uses in unreachable code or of never-defined registers. *)
let value_of_use t iid r =
  match Int_tbl.find t.use_val ((iid * t.nregs) + r) with
  | v -> Some v
  | exception Not_found -> None

let def_site_of t v = t.def_site.(v)

let phi_args_of t block r =
  try Int_tbl.find t.phi_args ((block * t.nregs) + r) with Not_found -> []
