type report = {
  dl_locks : Event.lock_id list;
  dl_threads : Event.thread_id list;
}

(* Edge l1 -> l2: the set of (thread, gate lockset) pairs under which
   some thread holding l1 acquired l2.  Gate locksets are the OTHER
   locks held at that moment (excluding l1 and l2). *)
type t = {
  held : (Event.thread_id, Event.lock_id list) Hashtbl.t; (* stack *)
  edges :
    (Event.lock_id * Event.lock_id,
     (Event.thread_id * Lockset_id.id) list ref)
    Hashtbl.t;
}

let create () = { held = Hashtbl.create 16; edges = Hashtbl.create 64 }

let reset t =
  Hashtbl.clear t.held;
  Hashtbl.clear t.edges

let stack_of t thread =
  match Hashtbl.find t.held thread with
  | held -> held
  | exception Not_found -> []

let on_acquire t ~thread ~lock =
  let held = stack_of t thread in
  (* Outermost acquisitions — the overwhelmingly common case in the
     exploration hot loop — record no edge and intern nothing. *)
  (match held with
  | [] -> ()
  | _ :: _ ->
      let gates = Lockset_id.of_list held in
      List.iter
        (fun l1 ->
          if l1 <> lock then begin
            let key = (l1, lock) in
            let r =
              match Hashtbl.find_opt t.edges key with
              | Some r -> r
              | None ->
                  let r = ref [] in
                  Hashtbl.add t.edges key r;
                  r
            in
            let gate = Lockset_id.remove l1 (Lockset_id.remove lock gates) in
            (* Keep only maximally-weak witnesses: a (thread, gates) pair
               is subsumed by one with the same thread and a subset of
               gates. *)
            if
              not
                (List.exists
                   (fun (th, g) -> th = thread && Lockset_id.subset g gate)
                   !r)
            then r := (thread, gate) :: !r
          end)
        held);
  Hashtbl.replace t.held thread (lock :: held)

let on_release t ~thread ~lock =
  match stack_of t thread with
  | l :: rest when l = lock -> Hashtbl.replace t.held thread rest
  | held ->
      (* Tolerate out-of-order notifications: drop the first match. *)
      let rec drop = function
        | [] -> []
        | x :: tl -> if x = lock then tl else x :: drop tl
      in
      Hashtbl.replace t.held thread (drop held)

let potential_deadlocks t =
  let seen = Hashtbl.create 8 in
  let reports = ref [] in
  Hashtbl.iter
    (fun (l1, l2) fwd ->
      if l1 < l2 then
        match Hashtbl.find_opt t.edges (l2, l1) with
        | None -> ()
        | Some bwd ->
            (* A 2-cycle: dangerous iff some forward witness and some
               backward witness come from different threads and share no
               gate lock. *)
            let danger =
              List.exists
                (fun (ta, ga) ->
                  List.exists
                    (fun (tb, gb) -> ta <> tb && Lockset_id.disjoint ga gb)
                    !bwd)
                !fwd
            in
            if danger && not (Hashtbl.mem seen (l1, l2)) then begin
              Hashtbl.replace seen (l1, l2) ();
              let threads =
                List.sort_uniq compare
                  (List.map fst !fwd @ List.map fst !bwd)
              in
              reports := { dl_locks = [ l1; l2 ]; dl_threads = threads } :: !reports
            end)
    t.edges;
  (* Longer cycles: DFS over the condensed edge set, reported without
     the gate refinement.  Only cycles not covered by a reported 2-cycle
     are added. *)
  let succs l =
    Hashtbl.fold
      (fun (a, b) _ acc -> if a = l then b :: acc else acc)
      t.edges []
  in
  let locks =
    Hashtbl.fold (fun (a, b) _ acc -> a :: b :: acc) t.edges []
    |> List.sort_uniq compare
  in
  let report_cycle cyc =
    let canon = List.sort compare cyc in
    if
      List.length canon > 2
      && not (List.exists (fun r -> List.sort compare r.dl_locks = canon) !reports)
    then begin
      let threads =
        Hashtbl.fold
          (fun (a, b) w acc ->
            if List.mem a cyc && List.mem b cyc then
              List.map fst !w @ acc
            else acc)
          t.edges []
        |> List.sort_uniq compare
      in
      if List.length threads >= 2 then
        reports := { dl_locks = canon; dl_threads = threads } :: !reports
    end
  in
  let rec dfs start path l =
    List.iter
      (fun nxt ->
        if nxt = start && List.length path >= 3 then report_cycle path
        else if (not (List.mem nxt path)) && List.length path < 6 then
          dfs start (nxt :: path) nxt)
      (succs l)
  in
  List.iter (fun l -> dfs l [ l ] l) locks;
  List.rev !reports
