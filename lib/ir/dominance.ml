(* Dominator computation over a method CFG using the Cooper–Harvey–
   Kennedy iterative algorithm, plus dominator-tree pre/post numbering
   for O(1) dominance queries.  This is the dominance relation the
   static weaker-than analysis uses for its [Exec] predicate (paper
   Section 6.1): [dom] rather than [pdom], because PEIs make
   post-dominance almost useless in a Java-like language. *)

type t = {
  entry : int;
  idom : int array; (* immediate dominator; idom.(entry) = entry; -1 unreachable *)
  rpo : int array; (* reachable blocks in reverse postorder *)
  pre : int array; (* dominator-tree preorder number; -1 unreachable *)
  post : int array; (* dominator-tree postorder number *)
  children : int list array; (* dominator-tree children *)
}

let compute (m : Ir.mir) : t =
  let n = Ir.n_blocks m in
  let entry = m.Ir.mir_entry in
  (* Postorder DFS. *)
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs (Ir.successors m b);
      order := b :: !order
    end
  in
  dfs entry;
  let rpo = Array.of_list !order in
  let rpo_num = Array.make n (-1) in
  Array.iteri (fun i b -> rpo_num.(b) <- i) rpo;
  (* Predecessors of reachable blocks. *)
  let preds = Array.make n [] in
  Array.iter
    (fun b -> List.iter (fun s -> preds.(s) <- b :: preds.(s)) (Ir.successors m b))
    rpo;
  let idom = Array.make n (-1) in
  idom.(entry) <- entry;
  let rec intersect a b =
    if a = b then a
    else if rpo_num.(a) > rpo_num.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> entry then begin
          let processed = List.filter (fun p -> idom.(p) <> -1) preds.(b) in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(b) <> new_idom then begin
                idom.(b) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  (* Dominator tree + pre/post numbering. *)
  let children = Array.make n [] in
  Array.iter
    (fun b -> if b <> entry && idom.(b) <> -1 then children.(idom.(b)) <- b :: children.(idom.(b)))
    rpo;
  (* Walking dominator-tree children in reverse postorder makes the
     renaming/numbering walk see branch values before join-point phis. *)
  Array.iteri
    (fun b cs ->
      children.(b) <-
        List.sort (fun x y -> compare rpo_num.(x) rpo_num.(y)) cs)
    children;
  let pre = Array.make n (-1) and post = Array.make n (-1) in
  let c = ref 0 in
  let rec number b =
    pre.(b) <- !c;
    incr c;
    List.iter number children.(b);
    post.(b) <- !c;
    incr c
  in
  number entry;
  { entry; idom; rpo; pre; post; children }

(* [dominates d a b]: does block [a] dominate block [b] (reflexively)? *)
let dominates d a b =
  d.pre.(a) >= 0 && d.pre.(b) >= 0 && d.pre.(a) <= d.pre.(b)
  && d.post.(b) <= d.post.(a)

let strictly_dominates d a b = a <> b && dominates d a b

let idom d b = if b = d.entry || d.idom.(b) = -1 then None else Some d.idom.(b)

let reachable d b = d.pre.(b) >= 0

(* Dominance frontiers (Cytron et al.), needed for SSA phi placement. *)
let frontiers (m : Ir.mir) (d : t) : int list array =
  let n = Ir.n_blocks m in
  let df = Array.make n [] in
  let preds = Array.make n [] in
  Array.iter
    (fun b ->
      if reachable d b then
        List.iter (fun s -> preds.(s) <- b :: preds.(s)) (Ir.successors m b))
    d.rpo;
  Array.iter
    (fun b ->
      if List.length preds.(b) >= 2 then
        List.iter
          (fun p ->
            let runner = ref p in
            while !runner <> d.idom.(b) do
              if not (List.mem b df.(!runner)) then
                df.(!runner) <- b :: df.(!runner);
              runner := d.idom.(!runner)
            done)
          preds.(b))
    d.rpo;
  df

(* Natural loops: back edges (t -> h with h dominating t) and their loop
   bodies, [h] plus every reachable block that reaches [t] without
   passing [h]; used by the single-instance analysis and by tests.
   [mark.(x) = e] records that back edge [e] has visited [x], so one
   array serves every edge. *)
let natural_loops (m : Ir.mir) (d : t) : (int * int list) list =
  let n = Ir.n_blocks m in
  let preds = Array.make n [] in
  Array.iter
    (fun b -> List.iter (fun s -> preds.(s) <- b :: preds.(s)) (Ir.successors m b))
    d.rpo;
  let mark = Array.make n (-1) in
  let edge = ref 0 in
  let loops = ref [] in
  Array.iter
    (fun b ->
      List.iter
        (fun h ->
          if dominates d h b then begin
            incr edge;
            let e = !edge in
            mark.(h) <- e;
            let body = ref [ h ] in
            let rec walk x =
              if mark.(x) <> e then begin
                mark.(x) <- e;
                body := x :: !body;
                List.iter walk preds.(x)
              end
            in
            walk b;
            loops := (h, !body) :: !loops
          end)
        (Ir.successors m b))
    d.rpo;
  !loops
