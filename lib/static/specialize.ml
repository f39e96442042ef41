module Ir = Drd_ir.Ir
module Link = Drd_ir.Link
module Site_table = Drd_ir.Site_table
module Iset = Pointsto.Iset
module Event = Drd_core.Event

(* Link-time trace specialization (the "compile the detector into the
   image" pass): consult the static analysis once per surviving trace
   site and hand {!Link.link} a table mapping sites to cheap runtime
   check classes.  The soundness rule throughout is that a fact must
   hold for {e every} execution of the site — a near-miss fact (a lock
   held on one path but dropped on another, an allocation inside a
   loop, a single post-start write) leaves the site generic.

   Classes, in priority order per alias component:

   - [Sro] (read-only after init): every traced write that can alias
     the component's locations executes before any thread start.  While
     main is the only live thread, the ownership filter absorbs its
     accesses, so no write ever reaches trie storage; post-start the
     stream for these locations is reads only, and reads never race
     reads.  Read sites may therefore drop everything after a first
     sighting without perturbing any report.

   - [Sowned] / managed [Sfixed] (owned until escape): when {e every}
     live site of the component qualifies — instance/array sites whose
     base may-points-to exactly one abstract object, or sites with a
     pinned lockset (below); statics qualify only through the pinned
     lockset — the component is {e managed}: its sites share the
     runtime's location-owner map.  Component construction makes this
     exact in every execution: sites land in the same component iff
     their bases' may points-to sets overlap (statics: same slot), and
     a concrete object belongs to exactly one abstract object, so every
     traced event that can touch one of the component's locations flows
     through a managed site.  A location's first event is forwarded and
     its owner recorded iff the detector's own ownership filter
     absorbed it; repeats by the owner are dropped (the filter would
     absorb them, or the cache would — neither touches trie storage);
     the first non-matching event demotes the location for good and is
     forwarded, so the detector performs its Became_shared transition
     exactly as without the shortcut.

   - [Sfixed] (pinned lockset): the must-held and may-held locksets of
     the site coincide and every lock in them is single-instance, so
     the lockset a thread holds at the site never varies by path.  The
     cell memoizes the last (thread, location, kind, lockset-id) tuple
     that reached trie storage; an exact repeat is redundant for the
     trie and any race it could report is already recorded for its
     location (race reports are deduplicated per location and stored
     coverage only grows), so it is dropped.  Works standalone (per
     site, no component condition), so fixed sites in unmanaged
     components still specialize; in a managed component the memo is
     the post-demotion fallback.

   The analyses here (MaySync, the interprocedural pre-start pass) are
   conservative over the same call graph and points-to results the
   static race set uses; a site in an unreachable method, or whose base
   has an empty points-to set, is left generic — as is any site with
   neither a pinned lockset nor a managed component, e.g. a lock held
   on one path but dropped on another, or a base that may alias two
   allocation sites. *)

(* ---- may-start: can executing this method transitively start a
   thread? ---- *)

let compute_may_start (pt : Pointsto.t) : bool array =
  let prog = pt.Pointsto.prog in
  let ms = Array.make (Ir.n_mirs prog) false in
  Pointsto.iter_reachable pt (fun m ->
      Ir.iter_instrs m (fun _ i ->
          match i.Ir.i_op with
          | Ir.ThreadStart _ -> ms.(m.Ir.mir_id) <- true
          | _ -> ()));
  let changed = ref true in
  while !changed do
    changed := false;
    Pointsto.iter_reachable pt (fun m ->
        let mid = m.Ir.mir_id in
        if not ms.(mid) then begin
          let hit = ref false in
          Ir.iter_instrs m (fun _ i ->
              match i.Ir.i_op with
              | Ir.Call _ ->
                  if
                    List.exists
                      (fun t -> ms.(t))
                      (Pointsto.call_targets_of pt mid i.Ir.i_id)
                  then hit := true
              | _ -> ());
          if !hit then begin
            ms.(mid) <- true;
            changed := true
          end
        end)
  done;
  ms

(* ---- pre-start: is this statement executed only before any thread
   start, on every path?  Greatest fixpoint: PS(main's entry) = true,
   PS(entry of a started run method) = false, PS(entry of m) = the
   conjunction of start-cleanliness at every call site of m; inside a
   method, cleanliness is a forward all-paths dataflow killed by
   [ThreadStart] and by calls into may-starting methods.  The result
   is [clean_at.(method id).(iid)], the value before the instruction;
   an id with no instruction reads [false]. ---- *)

let compute_prestart (pt : Pointsto.t) (may_start : bool array) :
    bool array array =
  let prog = pt.Pointsto.prog in
  let reachable = ref [] in
  Pointsto.iter_reachable pt (fun m -> reachable := m :: !reachable);
  let reachable = List.rev !reachable in
  let is_main (m : Ir.mir) = m.Ir.mir_key = prog.Ir.p_main in
  let pinned (m : Ir.mir) =
    is_main m || Pointsto.start_sites_of pt m.Ir.mir_id <> []
  in
  let ps_entry = Array.make (Ir.n_mirs prog) false in
  List.iter
    (fun (m : Ir.mir) ->
      ps_entry.(m.Ir.mir_id) <-
        is_main m || Pointsto.start_sites_of pt m.Ir.mir_id = [])
    reachable;
  let clean_at =
    Array.map (fun (m : Ir.mir) -> Array.make m.Ir.mir_next_iid false) prog.Ir.p_mirs
  in
  (* Forward all-paths cleanliness inside one method, given the entry
     value; records the pre-instruction value of every instruction. *)
  let flow (m : Ir.mir) =
    let mid = m.Ir.mir_id in
    let row = clean_at.(mid) in
    let n = Ir.n_blocks m in
    let block_in = Array.make n true in
    let block_out = Array.make n true in
    let kill (i : Ir.instr) =
      match i.Ir.i_op with
      | Ir.ThreadStart _ -> true
      | Ir.Call _ ->
          List.exists (fun t -> may_start.(t)) (Pointsto.call_targets_of pt mid i.Ir.i_id)
      | _ -> false
    in
    let transfer l record =
      let v = ref block_in.(l) in
      List.iter
        (fun (i : Ir.instr) ->
          if record then row.(i.Ir.i_id) <- !v;
          if kill i then v := false)
        (Ir.block m l).Ir.b_instrs;
      !v
    in
    block_in.(m.Ir.mir_entry) <- ps_entry.(mid);
    let changed = ref true in
    while !changed do
      changed := false;
      for l = 0 to n - 1 do
        let out = transfer l false in
        if out <> block_out.(l) then begin
          block_out.(l) <- out;
          changed := true
        end;
        (match (Ir.block m l).Ir.b_term with
        | Ir.Goto t ->
            if out < block_in.(t) then begin
              block_in.(t) <- out;
              changed := true
            end
        | Ir.If (_, t, f) ->
            if out < block_in.(t) then begin
              block_in.(t) <- out;
              changed := true
            end;
            if out < block_in.(f) then begin
              block_in.(f) <- out;
              changed := true
            end
        | Ir.Ret _ | Ir.Trap _ -> ())
      done
    done;
    for l = 0 to n - 1 do
      ignore (transfer l true)
    done
  in
  (* Outer fixpoint over method entries, decreasing from true. *)
  let stable = ref false in
  while not !stable do
    stable := true;
    Array.iter (fun row -> Array.fill row 0 (Array.length row) false) clean_at;
    List.iter flow reachable;
    List.iter
      (fun (m : Ir.mir) ->
        let mid = m.Ir.mir_id in
        if ps_entry.(mid) && not (pinned m) then begin
          let callers = Pointsto.callers_of pt mid in
          let ok =
            callers <> []
            && List.for_all
                 (fun (cs : Pointsto.call_site) ->
                   let row = clean_at.(cs.Pointsto.cs_mid) in
                   cs.Pointsto.cs_iid < Array.length row && row.(cs.Pointsto.cs_iid))
                 callers
          in
          if not ok then begin
            ps_entry.(mid) <- false;
            stable := false
          end
        end)
      reachable
  done;
  clean_at

(* ---- surviving trace sites ---- *)

type site = {
  s_site : int; (* site id *)
  s_mid : int; (* method id *)
  s_iid : int; (* trace instruction id *)
  s_instr : Ir.instr;
  s_kind : Event.kind;
  s_base : Ir.reg option; (* None for statics *)
  s_gidx : int; (* loc-space group: field index, 1023 arrays, -(slot+1) statics *)
}

(* The whole-array location index [Memloc] uses; a field with this
   index would collide with array locations, so classification bails
   out entirely if one exists (it never does in practice — class
   layouts are small). *)
let array_gidx = 1023

exception Unspecializable

let collect_sites (pt : Pointsto.t) (prog : Ir.program) : site list =
  let acc = ref [] in
  Ir.iter_mirs prog (fun m ->
      let mid = m.Ir.mir_id in
      if pt.Pointsto.reachable.(mid) then
        Ir.iter_instrs m (fun _ i ->
            match i.Ir.i_op with
            | Ir.Trace t ->
                let base, gidx =
                  match t.Ir.tr_target with
                  | Ir.Tr_field (o, fm) ->
                      if fm.Ir.fm_index >= array_gidx then
                        raise Unspecializable;
                      (Some o, fm.Ir.fm_index)
                  | Ir.Tr_static sm -> (None, -(sm.Ir.sm_slot + 1))
                  | Ir.Tr_array (a, _) -> (Some a, array_gidx)
                in
                acc :=
                  {
                    s_site = t.Ir.tr_site;
                    s_mid = mid;
                    s_iid = i.Ir.i_id;
                    s_instr = i;
                    s_kind = t.Ir.tr_kind;
                    s_base = base;
                    s_gidx = gidx;
                  }
                  :: !acc
            | _ -> ()))
  ;
  List.rev !acc

(* ---- union-find over site indices ---- *)

let find parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  let r = go i in
  let rec compress i =
    if parent.(i) <> r then begin
      let next = parent.(i) in
      parent.(i) <- r;
      compress next
    end
  in
  compress i;
  r

let union parent i j =
  let ri = find parent i and rj = find parent j in
  if ri <> rj then parent.(ri) <- rj

(* ---- classification ---- *)

let compute (rs : Race_set.t) (prog : Ir.program) : Link.spec option =
  match
    let pt = Race_set.pointsto rs in
    let must = Race_set.must rs in
    let icg = Race_set.icg rs in
    let sites = Array.of_list (collect_sites pt prog) in
    let n = Array.length sites in
    if n = 0 then None
    else begin
      let may_start = compute_may_start pt in
      let prestart = compute_prestart pt may_start in
      let prestart_site s =
        let row = prestart.(s.s_mid) in
        s.s_iid < Array.length row && row.(s.s_iid)
      in
      let pts_of s =
        match s.s_base with
        | None -> Iset.empty
        | Some r -> Pointsto.pts_reg pt s.s_mid r
      in
      let base_pts = Array.map pts_of sites in
      (* Alias components: same loc-space group and overlapping base
         points-to sets (statics: same slot).  A site whose base can
         point to nothing never produces an event; it stays generic
         and constrains nobody. *)
      let parent = Array.init n (fun i -> i) in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if sites.(i).s_gidx = sites.(j).s_gidx then
            if sites.(i).s_base = None then union parent i j
            else if not (Iset.disjoint base_pts.(i) base_pts.(j)) then
              union parent i j
        done
      done;
      let comps = Hashtbl.create 16 in
      for i = 0 to n - 1 do
        let r = find parent i in
        let l =
          match Hashtbl.find_opt comps r with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.add comps r l;
              l
        in
        l := i :: !l
      done;
      let nsites = Site_table.count prog.Ir.p_sites in
      let cell_of_site = Array.make nsites (-1) in
      let cells = ref [] in
      let ncells = ref 0 in
      let new_cell cls managed =
        let id = !ncells in
        incr ncells;
        cells := (cls, managed) :: !cells;
        id
      in
      let fixed_ok s =
        match Icg.must_sync icg s.s_mid s.s_instr with
        | None -> false (* unconstrained top: unreachable node *)
        | Some musts ->
            Iset.equal musts (Icg.may_sync icg s.s_mid s.s_instr)
            && Iset.for_all (Must.single_obj must) musts
      in
      Hashtbl.iter
        (fun _ members ->
          let members = List.rev_map (fun i -> sites.(i)) !members in
          let dead s = s.s_base <> None && Iset.is_empty (pts_of s) in
          let live = List.filter (fun s -> not (dead s)) members in
          let writes =
            List.filter (fun s -> s.s_kind = Event.Write) live
          in
          let reads = List.filter (fun s -> s.s_kind = Event.Read) live in
          if reads <> [] && List.for_all prestart_site writes then
            (* Read-only after init: each read site drops independently
               (one cell per site, first-sighting bit).  Write sites
               stay generic — they only ever fire pre-start. *)
            List.iter
              (fun s -> cell_of_site.(s.s_site) <- new_cell Link.Sro false)
              reads
          else begin
            (* A site qualifies for the location-owner shortcut when its
               base may-points-to exactly one abstract object (statics
               never do: they qualify only via the pinned lockset).  The
               component is managed iff every live site qualifies one
               way or the other — otherwise an unqualified site could
               deliver an event for a managed location around the map. *)
            let owned_ok s =
              s.s_base <> None && Iset.cardinal (pts_of s) = 1
            in
            let managed =
              live <> []
              && List.for_all (fun s -> owned_ok s || fixed_ok s) live
            in
            List.iter
              (fun s ->
                if fixed_ok s then
                  cell_of_site.(s.s_site) <- new_cell Link.Sfixed managed
                else if managed then
                  cell_of_site.(s.s_site) <- new_cell Link.Sowned true)
              live
          end)
        comps;
      if !ncells = 0 then None
      else
        let cells = Array.of_list (List.rev !cells) in
        Some
          {
            Link.sp_ncells = !ncells;
            sp_cell_of_site = cell_of_site;
            sp_cell_class = Array.map fst cells;
            sp_cell_managed = Array.map snd cells;
          }
    end
  with
  | spec -> spec
  | exception Unspecializable -> None
