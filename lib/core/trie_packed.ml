open Event

(* One shared trie over lock identities; each node maps the locations
   accessed with exactly that lockset to their meet summary.  The
   algebra is identical to Trie's — only storage is shared. *)

type summary = {
  mutable s_thread : thread_info; (* never Top: absent instead *)
  mutable s_kind : kind;
  mutable s_site : site_id;
}

type node = {
  label : lock_id; (* -1 for the root *)
  summaries : (loc_id, summary) Hashtbl.t;
  mutable children : node list; (* sorted by increasing label *)
}

type t = { root : node; mutable nodes : int }

let mk_node label = { label; summaries = Hashtbl.create 4; children = [] }

let create () = { root = mk_node (-1); nodes = 1 }

let node_count h = h.nodes

let clear h =
  Hashtbl.clear h.root.summaries;
  h.root.children <- [];
  h.nodes <- 1

let locations h =
  let locs = Hashtbl.create 64 in
  let rec go n =
    Hashtbl.iter (fun l _ -> Hashtbl.replace locs l ()) n.summaries;
    List.iter go n.children
  in
  go h.root;
  Hashtbl.length locs

(* Same binary search as Trie.mem_arr: membership in the event's sorted
   lock array without a table lookup or allocation. *)
let mem_arr (a : int array) l =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < l then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length a && a.(!lo) = l

let summary_weaker s (e : Event.t) =
  thread_leq s.s_thread (Thread e.thread) && kind_leq s.s_kind e.kind

let rec descend h n (path : int array) i =
  if i >= Array.length path then n
  else begin
    let l = path.(i) in
    let rec find = function
      | c :: _ when c.label = l -> Some c
      | c :: tl when c.label < l -> find tl
      | _ -> None
    in
    let child =
      match find n.children with
      | Some c -> c
      | None ->
          let c = mk_node l in
          h.nodes <- h.nodes + 1;
          let rec ins = function
            | x :: tl when x.label < l -> x :: ins tl
            | tl -> c :: tl
          in
          n.children <- ins n.children;
          c
    in
    descend h child path (i + 1)
  end

(* Remove summaries for [e.loc] that the just-updated node covers, then
   garbage-collect nodes with no summaries and no children. *)
let prune_stronger h keep (loc : loc_id) (required : int array) tv av =
  let nreq = Array.length required in
  let rec go n ri =
    let ri' =
      if ri < nreq && n.label = required.(ri) then Some (ri + 1)
      else if ri < nreq && n.label > required.(ri) then None
      else Some ri
    in
    match ri' with
    | None -> true (* the new lockset cannot be a subset here: keep *)
    | Some ri ->
        (if ri = nreq && n != keep then
           match Hashtbl.find_opt n.summaries loc with
           | Some s when thread_leq tv s.s_thread && kind_leq av s.s_kind ->
               Hashtbl.remove n.summaries loc
           | _ -> ());
        let survivors =
          List.filter
            (fun c ->
              let live = go c ri in
              if not live then h.nodes <- h.nodes - 1;
              live)
            n.children
        in
        n.children <- survivors;
        Hashtbl.length n.summaries > 0 || n.children <> [] || n == keep
  in
  ignore (go h.root 0)

let update h (e : Event.t) =
  let locks = Lockset_id.sorted_array e.locks in
  let n = descend h h.root locks 0 in
  let tv, av =
    match Hashtbl.find_opt n.summaries e.loc with
    | Some s ->
        s.s_thread <- thread_meet s.s_thread (Thread e.thread);
        if e.kind = Write && s.s_kind = Read then s.s_site <- e.site;
        s.s_kind <- kind_meet s.s_kind e.kind;
        (s.s_thread, s.s_kind)
    | None ->
        Hashtbl.replace n.summaries e.loc
          { s_thread = Thread e.thread; s_kind = e.kind; s_site = e.site };
        (Thread e.thread, e.kind)
  in
  prune_stronger h n e.loc locks tv av

let process h (e : Event.t) =
  let locks = Lockset_id.sorted_array e.locks in
  let race = ref None in
  let weaker = ref false in
  let check_weak n =
    match Hashtbl.find n.summaries e.loc with
    | s -> if summary_weaker s e then weaker := true
    | exception Not_found -> ()
  in
  (* [path] is the reversed label list to the node; interned only when a
     race is found. *)
  let check_race n path =
    if !race = None then
      match Hashtbl.find n.summaries e.loc with
      | s
        when thread_meet (Thread e.thread) s.s_thread = Bot
             && kind_meet e.kind s.s_kind = Write ->
          race :=
            Some
              {
                Trie.p_thread = s.s_thread;
                p_kind = s.s_kind;
                p_locks = Lockset_id.of_list path;
                p_site = s.s_site;
              }
      | _ -> ()
      | exception Not_found -> ()
  in
  let rec weak_dfs n =
    check_weak n;
    if not !weaker then
      List.iter
        (fun c -> if (not !weaker) && mem_arr locks c.label then weak_dfs c)
        n.children
  in
  let rec race_dfs n path =
    check_race n path;
    if !race = None then
      List.iter
        (fun c ->
          if (not (mem_arr locks c.label)) && !race = None then
            race_dfs c (c.label :: path))
        n.children
  in
  check_weak h.root;
  check_race h.root [];
  List.iter
    (fun c ->
      if mem_arr locks c.label then (if not !weaker then weak_dfs c)
      else if !race = None then race_dfs c [ c.label ])
    h.root.children;
  if not !weaker then update h e;
  (!race, !weaker)
