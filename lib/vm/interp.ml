open Drd_core
module Ir = Drd_ir.Ir
module Link = Drd_ir.Link
module Ast = Drd_lang.Ast
module Tast = Drd_lang.Tast
open Link

(* The linked-image interpreter.  It executes a [Link.image] — the flat
   form [Pipeline.compile] produces once per program — instead of the
   block IR: method bodies are [lop array]s addressed by an integer pc,
   calls are pre-resolved method ids or vtable slots, and every run-time
   table the hot loop touches is an array indexed by a dense id (thread
   id, heap id, class id).  No string is built or hashed between two
   scheduler decisions.

   Exploration campaigns replay the same program thousands of times, so
   this loop is where their wall-clock goes: the layered benchmark's
   traced runs ([perfbench/run.py --trace 1], rows [vm.run_ms] and
   [vm.steps_per_s]) measure it, and DESIGN.md §6 records the figures.
   Two rules keep it cheap (DESIGN.md §12): a PCT quantum that ends
   with nothing changed refills in place instead of paying a scheduling
   decision, and the slice loop calls no function of another module
   (dune's default profile compiles with [-opaque], which turns every
   such call into an indirect one).

   Registers, statics, object fields and array elements are plain ints
   ([Value]'s slot encoding: an int is itself, a boolean 0 or 1, null
   -1, a reference its heap id), read and written with no tag test and
   no write barrier.  That is sound because [Link] has checked every
   operand's category against its op; [Interp_ref] keeps boxed values
   and checks them at run time, and the golden suite compares the two.
   Prints are decoded by the printed register's static type, so
   [r_prints] holds the same [Value.t]s as before.

   Semantics are bit-identical to the frozen block interpreter
   ([Interp_ref]): the same schedule, the same RNG draws in the same
   order, the same [Sink] notifications, the same error strings.  The
   invariants that keep it that way:

   - [st.steps] advances once per executed slot, and block terminators
     occupy exactly one slot in the linked stream (they were one "free"
     [exec_term] step in the block interpreter), so step counts — and
     with them PCT change points and the step limit — are unchanged;
   - the slice budget is spent only by instructions that advance, never
     by terminators or by a blocked retry, exactly as before;
   - a PCT decision is skipped only when it provably picks the running
     thread again and draws nothing (see [run_slice]);
   - the ready list is scanned newest-thread-first (the reverse creation
     order the old [thread list] had), so [Random_walk]'s [List.nth]
     draw and PCT's lazy priority assignment consume the RNG
     identically;
   - heap ids are allocated in the same order (objects, arrays, class
     objects on first touch, join pseudo-locks at thread creation), so
     every location and lock id matches.

   The one intended delta: virtual calls report their real call-site id
   to [Sink.call] (the block interpreter hard-coded -1).  The recording
   and detector paths never read that field, so golden identity holds;
   the object-race baseline gets usable sites out of it. *)

exception Runtime_error = Heap.Runtime_error

type policy =
  | Random_walk
  | Pct of { depth : int; horizon : int }

type config = {
  seed : int;
  quantum : int;
  max_steps : int;
  all_accesses : bool;
  granularity : Memloc.granularity;
  pseudo_locks : bool;
  policy : policy;
}

let default_config =
  {
    seed = 42;
    quantum = 20;
    max_steps = 200_000_000;
    all_accesses = false;
    granularity = Memloc.Per_field;
    pseudo_locks = true;
    policy = Random_walk;
  }

type result = {
  r_prints : (string * Value.t option) list;
  r_steps : int;
  r_max_threads : int;
  r_heap : Heap.t;
}

(* All fields but the register file are mutable so returned frames can
   be recycled through the per-context free list ([alloc_frame]): a
   frame is reinitialized field by field on reuse, and its register
   array — keyed by exact size — is refilled with null, making a
   recycled frame indistinguishable from a fresh one. *)
type frame = {
  mutable f_meth : lmethod;
  f_regs : int array; (* slot-encoded *)
  mutable f_pc : int; (* index into [f_meth.m_code] *)
  mutable f_dst : Ir.reg option; (* caller register receiving the return value *)
}

type status =
  | Runnable
  | Blocked of int (* waiting to enter the monitor of this object *)
  | Joining of int (* waiting for this thread id to finish *)
  | Waiting of int (* in the wait set of this object's monitor *)
  | Finished

type thread = {
  t_id : int;
  mutable t_frames : frame list;
  mutable t_depth : int; (* length of [t_frames] *)
  mutable t_status : status;
  t_held : (int, int) Hashtbl.t; (* monitor object -> reentrancy count *)
  mutable t_lockset : Lockset_id.id; (* outermost real locks + pseudo *)
  mutable t_wait : int option; (* saved reentrancy count across wait() *)
}

type monitor = {
  mutable owner : int option;
  mutable count : int;
  mutable waiters : int list; (* FIFO wait set *)
}

(* Filler for unused thread-array slots; never scheduled. *)
let dummy_thread =
  {
    t_id = -1;
    t_frames = [];
    t_depth = 0;
    t_status = Finished;
    t_held = Hashtbl.create 1;
    t_lockset = Lockset_id.empty;
    t_wait = None;
  }

type st = {
  image : image;
  cfg : config;
  sink : Sink.t;
  spec :
    (cell:int ->
    tid:int ->
    loc:int ->
    kind:Drd_core.Event.kind ->
    locks:Lockset_id.id ->
    site:int ->
    unit)
    option;
      (* [sink.spec], pre-gated on the VM config: specialized trace ops
         only take their fast path under the per-field granularity and
         trace-driven (not [all_accesses]) event model the link-time
         classification assumed; any other config falls back to the
         generic [access] path, which is always exact. *)
  mutable resched : bool;
      (* Set by every op that can change a thread's status or a
         monitor's owner; cleared when a slice starts.  While it is
         clear, the ready set is the one the last decision saw. *)
  heap : Heap.t;
  globals : int array; (* static field slots, slot-encoded *)
  mutable threads : thread array; (* tid -> thread; first [nthreads] live *)
  mutable nthreads : int;
  (* Heap-indexed side tables, grown together on demand: heap ids are
     dense and never reused, so an array beats a hashtable on every
     access the hot loop makes. *)
  mutable monitors : monitor option array; (* heap id -> monitor *)
  mutable obj_cls : int array; (* heap id -> class id, or -1 *)
  mutable thread_of_obj : int array; (* heap id -> started tid, or -1 *)
  class_obj_ids : int array; (* class id -> per-class lock heap id, or -1 *)
  templates : int array array; (* class id -> default field values *)
  mutable ready_buf : int array; (* scratch: ready tids, newest first *)
  frame_pool : frame list array; (* free frames, indexed by register count *)
  pseudo : Pseudo_lock.t;
  rng : Random.State.t;
  mutable steps : int;
  mutable prints : (string * Value.t option) list; (* reverse order *)
}

let error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

(* Calls nest at most this deep on one thread; the call that would
   push one more frame fails with a StackOverflowError.  [Interp_ref]
   checks the same bound at the same point. *)
let max_call_depth = 10_000

(* Unchecked indexing for the two arrays the linker has already
   validated ([Link]: every register operand is inside its method's
   register file and of its op's category, every pc the interpreter can
   reach is inside [m_code]).  Used ONLY for register files and code
   fetch — heap-side arrays keep their bounds checks.  Declared at their
   monomorphic types, so the compiler emits a plain load and store. *)
external ( .%() ) : int array -> int -> int = "%array_unsafe_get"

external ( .%()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

external code_at : lop array -> int -> lop = "%array_unsafe_get"

let null = Value.null_slot
let[@inline] of_bool b = Bool.to_int b

(* Module-local restatements of the [Heap] and [Memloc] helpers the
   slice loop uses.  Dune's default profile compiles every library with
   [-opaque], so a call into another module is an indirect call through
   its module block and is never inlined; these are direct calls or
   inlined.  Each must agree with its original exactly — the golden
   suite diffs every value, location and error against [Interp_ref],
   which calls the originals. *)
let[@inline] heap_get (h : Heap.t) id =
  if id < 0 || id >= h.Heap.n then invalid_arg "Heap.get: bad id";
  h.Heap.data.(id)

let object_bits = Memloc.object_tag lsl 1
let array_bits = Memloc.array_tag lsl 1
let max_fields = Memloc.max_fields

let[@inline] field_loc ~gran ~obj ~index =
  match gran with
  | Memloc.Per_field ->
      if index >= max_fields then invalid_arg "Memloc.field: too many fields";
      (obj lsl 11) lor (index lsl 1)
  | Memloc.Per_object -> (obj lsl 11) lor object_bits

let[@inline] array_loc ~gran ~obj =
  match gran with
  | Memloc.Per_field -> (obj lsl 11) lor array_bits
  | Memloc.Per_object -> (obj lsl 11) lor object_bits

let[@inline] static_loc ~slot = (slot lsl 1) lor 1

(* Grow the heap-indexed side tables to cover heap id [id]. *)
let ensure st id =
  if id >= Array.length st.obj_cls then begin
    let cap = max (2 * Array.length st.obj_cls) (id + 1) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    st.obj_cls <- grow st.obj_cls (-1);
    st.thread_of_obj <- grow st.thread_of_obj (-1);
    st.monitors <- grow st.monitors None
  end

let find_thread st tid =
  if tid < 0 || tid >= st.nthreads then error "unknown thread id %d" tid
  else st.threads.(tid)

let new_thread st frames =
  let tid = st.nthreads in
  st.nthreads <- st.nthreads + 1;
  let t =
    {
      t_id = tid;
      t_frames = frames;
      t_depth = List.length frames;
      t_status = Runnable;
      t_held = Hashtbl.create 4;
      t_lockset = Lockset_id.empty;
      t_wait = None;
    }
  in
  if st.cfg.pseudo_locks then begin
    let s = Heap.alloc_opaque st.heap (Printf.sprintf "S_%d" tid) in
    ensure st s;
    Pseudo_lock.on_thread_start st.pseudo tid s;
    t.t_lockset <- Pseudo_lock.locks_of st.pseudo tid
  end;
  if tid >= Array.length st.threads then begin
    let b = Array.make (max 8 (2 * (tid + 1))) dummy_thread in
    Array.blit st.threads 0 b 0 (Array.length st.threads);
    st.threads <- b
  end;
  st.threads.(tid) <- t;
  t

let monitor_of st obj =
  ensure st obj;
  match st.monitors.(obj) with
  | Some m -> m
  | None ->
      let m = { owner = None; count = 0; waiters = [] } in
      st.monitors.(obj) <- Some m;
      m

let class_obj st cid =
  let id = st.class_obj_ids.(cid) in
  if id >= 0 then id
  else begin
    let id = Heap.alloc_opaque st.heap ("class " ^ st.image.i_classes.(cid)) in
    ensure st id;
    st.class_obj_ids.(cid) <- id;
    id
  end

let null_error what = error "NullPointerException (%s)" what

(* A reference register's heap id; null is the only negative slot. *)
let[@inline] as_ref ~what o = if o < 0 then null_error what else o

let[@inline] obj_fields st o =
  match heap_get st.heap o with
  | Heap.Obj { fields; _ } -> fields
  | _ -> error "type confusion: expected object #%d" o

let[@inline] arr_elems st o =
  match heap_get st.heap o with
  | Heap.Arr { elems } -> elems
  | _ -> error "type confusion: expected array #%d" o

let emit_access st thr ~loc ~kind ~site =
  st.sink.Sink.access ~tid:thr.t_id ~loc ~kind ~locks:thr.t_lockset ~site

(* The [all_accesses] event of a plain load or store.  Callers test
   [st.cfg.all_accesses] first, so the location is computed only when the
   event is emitted. *)
let raw_access st thr ~loc ~kind = emit_access st thr ~loc ~kind ~site:(-1)

(* The call hot path: reuse a returned frame of the exact register
   count when one is free, else allocate.  The refill makes reuse
   unobservable — registers start null either way. *)
let alloc_frame st (m : lmethod) dst =
  let n = m.m_nregs in
  match st.frame_pool.(n) with
  | fr :: tl ->
      st.frame_pool.(n) <- tl;
      Array.fill fr.f_regs 0 n null;
      fr.f_meth <- m;
      fr.f_pc <- m.m_entry;
      fr.f_dst <- dst;
      fr
  | [] -> { f_meth = m; f_regs = Array.make n null; f_pc = m.m_entry; f_dst = dst }

let recycle_frame st fr =
  let n = Array.length fr.f_regs in
  st.frame_pool.(n) <- fr :: st.frame_pool.(n)

(* Push the callee's frame; the caller's slice loop re-enters on it. *)
let exec_call st thr regs dst target args site =
  let mid =
    match target with
    | Lc_method mid -> mid
    | Lc_virtual (slot, name) ->
        let recv = regs.%(args.(0)) in
        if recv < 0 then null_error ("call " ^ name);
        (match st.sink.Sink.call with
        | Some f -> f ~tid:thr.t_id ~obj:recv ~locks:thr.t_lockset ~site
        | None -> ());
        ensure st recv;
        let cid = st.obj_cls.(recv) in
        let mid = if cid >= 0 then st.image.i_vtables.(cid).(slot) else -1 in
        if mid < 0 then
          error "no method %s on class %s" name (Heap.class_of st.heap recv)
        else mid
  in
  let m = st.image.i_methods.(mid) in
  if thr.t_depth >= max_call_depth then error "StackOverflowError in %s" m.m_key;
  let fr = alloc_frame st m dst in
  let nregs = fr.f_regs in
  for k = 0 to Array.length args - 1 do
    nregs.(k) <- regs.%(args.(k))
  done;
  thr.t_frames <- fr :: thr.t_frames;
  thr.t_depth <- thr.t_depth + 1

(* A plain field access's [all_accesses] event.  The slice loop calls
   this only when [st.cfg.all_accesses] is set or when [index] is past
   [Memloc]'s field range: computing the location is what raises in
   that case, in [Interp_ref] on every access, so the error surfaces
   at the same step here. *)
let raw_field_access st thr ~obj ~index ~kind =
  let loc = field_loc ~gran:st.cfg.granularity ~obj ~index in
  if st.cfg.all_accesses then raw_access st thr ~loc ~kind

(* Execute one of the less frequent non-terminator instructions of the
   top frame; the slice loop runs the hot ones, calls and yields
   itself.  [regs] is [frame.f_regs] and [pc] the instruction's slot
   (the slice loop keeps both in locals and passes them in), so error
   paths read the line from [m_lines.(pc)].  Returns [false] when the
   thread must retry the same instruction later (blocked).

   Every op that can change a thread's status or a monitor's owner —
   monitor enter/exit, wait, notify, start, join — sets [st.resched]
   first; so does a thread's exit in [exec_ret].  A new op that can
   change readiness must join this list (DESIGN.md §12). *)
let exec_instr st thr frame regs (op : lop) pc : bool =
  match op with
  | Lunop (Ast.Neg, d, s) ->
      regs.%(d) <- - regs.%(s);
      true
  | Lunop (Ast.Not, d, s) ->
      regs.%(d) <- 1 - regs.%(s);
      true
  | Lputfield (o, fm, s) ->
      let obj = regs.%(o) in
      if obj < 0 then null_error (fm.Ir.fm_name ^ " store");
      let index = fm.Ir.fm_index in
      (obj_fields st obj).(index) <- regs.%(s);
      if st.cfg.all_accesses || index >= max_fields then
        raw_field_access st thr ~obj ~index ~kind:Event.Write;
      true
  | Lputstatic (sm, s) ->
      st.globals.(sm.Ir.sm_slot) <- regs.%(s);
      if st.cfg.all_accesses then
        raw_access st thr
          ~loc:(static_loc ~slot:sm.Ir.sm_slot)
          ~kind:Event.Write;
      true
  | Lastore (a, idx, s) ->
      let arr = as_ref ~what:"array store" regs.%(a) in
      (arr_elems st arr).(regs.%(idx)) <- regs.%(s);
      if st.cfg.all_accesses then
        raw_access st thr
          ~loc:(array_loc ~gran:st.cfg.granularity ~obj:arr)
          ~kind:Event.Write;
      true
  | Lnewobj (d, cid) ->
      let id =
        Heap.alloc_obj st.heap ~cls:st.image.i_classes.(cid)
          st.templates.(cid)
      in
      ensure st id;
      st.obj_cls.(id) <- cid;
      regs.%(d) <- id;
      true
  | Lnewarr (d, elem, dims) ->
      let ds = List.map (fun r -> regs.%(r)) dims in
      List.iter
        (fun n -> if n < 0 then error "negative array size at line %d" frame.f_meth.m_lines.(pc))
        ds;
      let id = Heap.alloc_arr st.heap elem ds in
      ensure st id;
      regs.%(d) <- id;
      true
  | Larrlen (d, a) ->
      let arr = as_ref ~what:"length" regs.%(a) in
      regs.%(d) <- Array.length (arr_elems st arr);
      true
  | Lclassobj (d, cid) ->
      regs.%(d) <- class_obj st cid;
      true
  | Lmonitorenter r -> (
      st.resched <- true;
      let obj = as_ref ~what:"monitorenter" regs.%(r) in
      let m = monitor_of st obj in
      match m.owner with
      | Some o when o = thr.t_id ->
          m.count <- m.count + 1;
          Hashtbl.replace thr.t_held obj m.count;
          true
      | None ->
          m.owner <- Some thr.t_id;
          m.count <- 1;
          Hashtbl.replace thr.t_held obj 1;
          thr.t_lockset <- Lockset_id.add obj thr.t_lockset;
          st.sink.Sink.acquire ~tid:thr.t_id ~lock:obj;
          true
      | Some _ ->
          thr.t_status <- Blocked obj;
          false)
  | Lmonitorexit r ->
      st.resched <- true;
      let obj = as_ref ~what:"monitorexit" regs.%(r) in
      let m = monitor_of st obj in
      if (match m.owner with Some o -> o <> thr.t_id | None -> true) then
        error "IllegalMonitorStateException at %s line %d" frame.f_meth.m_key
          frame.f_meth.m_lines.(pc);
      m.count <- m.count - 1;
      if m.count = 0 then begin
        m.owner <- None;
        Hashtbl.remove thr.t_held obj;
        thr.t_lockset <- Lockset_id.remove obj thr.t_lockset;
        st.sink.Sink.release ~tid:thr.t_id ~lock:obj
      end
      else Hashtbl.replace thr.t_held obj m.count;
      true
  | Lthreadstart r ->
      st.resched <- true;
      let obj = as_ref ~what:"start" regs.%(r) in
      ensure st obj;
      if st.thread_of_obj.(obj) >= 0 then
        error "IllegalThreadStateException: thread #%d started twice" obj;
      let cid = st.obj_cls.(obj) in
      let run_slot = st.image.i_run_slot in
      let mid =
        if cid >= 0 && run_slot >= 0 then st.image.i_vtables.(cid).(run_slot)
        else -1
      in
      if mid < 0 then
        error "class %s has no run method" (Heap.class_of st.heap obj);
      let m = st.image.i_methods.(mid) in
      let fr = alloc_frame st m None in
      fr.f_regs.(0) <- obj;
      let child = new_thread st [ fr ] in
      st.thread_of_obj.(obj) <- child.t_id;
      st.sink.Sink.thread_start ~parent:thr.t_id ~child:child.t_id;
      true
  | Lthreadjoin r ->
      st.resched <- true;
      let obj = as_ref ~what:"join" regs.%(r) in
      ensure st obj;
      let tid = st.thread_of_obj.(obj) in
      if tid < 0 then true (* joining a never-started thread returns at once *)
      else
        let target = find_thread st tid in
        if (match target.t_status with Finished -> true | _ -> false) then begin
          if st.cfg.pseudo_locks then begin
            Pseudo_lock.on_join st.pseudo ~joiner:thr.t_id ~joinee:tid;
            thr.t_lockset <-
              Lockset_id.union thr.t_lockset
                (Pseudo_lock.locks_of st.pseudo thr.t_id)
          end;
          st.sink.Sink.thread_join ~joiner:thr.t_id ~joinee:tid;
          true
        end
        else begin
          thr.t_status <- Joining tid;
          false
        end
  | Lwait r -> (
      st.resched <- true;
      let obj = as_ref ~what:"wait" regs.%(r) in
      let m = monitor_of st obj in
      match thr.t_wait with
      | None ->
          (* Phase 1: release the monitor entirely and join the wait
             set.  Resumes at this same instruction once notified. *)
          if (match m.owner with Some o -> o <> thr.t_id | None -> true) then
            error
              "IllegalMonitorStateException: wait at %s line %d without \
               owning the monitor"
              frame.f_meth.m_key frame.f_meth.m_lines.(pc);
          thr.t_wait <- Some m.count;
          m.owner <- None;
          m.count <- 0;
          m.waiters <- m.waiters @ [ thr.t_id ];
          Hashtbl.remove thr.t_held obj;
          thr.t_lockset <- Lockset_id.remove obj thr.t_lockset;
          st.sink.Sink.release ~tid:thr.t_id ~lock:obj;
          thr.t_status <- Waiting obj;
          false
      | Some saved -> (
          (* Phase 2: notified; re-acquire with the saved count. *)
          match m.owner with
          | None ->
              m.owner <- Some thr.t_id;
              m.count <- saved;
              Hashtbl.replace thr.t_held obj saved;
              thr.t_lockset <- Lockset_id.add obj thr.t_lockset;
              st.sink.Sink.acquire ~tid:thr.t_id ~lock:obj;
              thr.t_wait <- None;
              true
          | Some _ ->
              thr.t_status <- Blocked obj;
              false))
  | Lnotify (r, all) ->
      st.resched <- true;
      let obj = as_ref ~what:"notify" regs.%(r) in
      let m = monitor_of st obj in
      if (match m.owner with Some o -> o <> thr.t_id | None -> true) then
        error
          "IllegalMonitorStateException: notify at %s line %d without owning \
           the monitor"
          frame.f_meth.m_key frame.f_meth.m_lines.(pc);
      let woken, remaining =
        match m.waiters with
        | [] -> ([], [])
        | w :: rest -> if all then (m.waiters, []) else ([ w ], rest)
      in
      m.waiters <- remaining;
      List.iter
        (fun tid ->
          let t = find_thread st tid in
          (* The woken thread re-contends for the monitor. *)
          t.t_status <- Blocked obj)
        woken;
      true
  | Lprint (tag, r) ->
      let v =
        Option.map
          (fun r -> Value.of_slot frame.f_meth.m_reg_tys.(r) regs.%(r))
          r
      in
      st.prints <- (tag, v) :: st.prints;
      true
  | Ltrace_field (o, index, kind, site) ->
      let obj = as_ref ~what:"trace" regs.%(o) in
      emit_access st thr
        ~loc:(field_loc ~gran:st.cfg.granularity ~obj ~index)
        ~kind ~site;
      true
  | Ltrace_static (slot, kind, site) ->
      emit_access st thr ~loc:(static_loc ~slot) ~kind ~site;
      true
  | Ltrace_array (a, kind, site) ->
      emit_access st thr
        ~loc:
          (array_loc ~gran:st.cfg.granularity
             ~obj:(as_ref ~what:"trace" regs.%(a)))
        ~kind ~site;
      true
  | Ltrace_field_spec (o, index, kind, site, cell) ->
      let obj = as_ref ~what:"trace" regs.%(o) in
      let loc = field_loc ~gran:st.cfg.granularity ~obj ~index in
      (match st.spec with
      | Some f -> f ~cell ~tid:thr.t_id ~loc ~kind ~locks:thr.t_lockset ~site
      | None -> emit_access st thr ~loc ~kind ~site);
      true
  | Ltrace_static_spec (slot, kind, site, cell) ->
      let loc = static_loc ~slot in
      (match st.spec with
      | Some f -> f ~cell ~tid:thr.t_id ~loc ~kind ~locks:thr.t_lockset ~site
      | None -> emit_access st thr ~loc ~kind ~site);
      true
  | Ltrace_array_spec (a, kind, site, cell) ->
      let loc =
        array_loc ~gran:st.cfg.granularity
          ~obj:(as_ref ~what:"trace" regs.%(a))
      in
      (match st.spec with
      | Some f -> f ~cell ~tid:thr.t_id ~loc ~kind ~locks:thr.t_lockset ~site
      | None -> emit_access st thr ~loc ~kind ~site);
      true
  | Lconst _ | Lmove _ | Lbinop _ | Lgetfield _ | Lgetstatic _ | Laload _
  | Lnullcheck _ | Lboundscheck _ | Lcall _ | Lyield | Lgoto _ | Lif _
  | Lret _ | Ltrap _ ->
      assert false (* run by the slice loop itself *)

let exec_ret st thr frame v =
  thr.t_frames <- List.tl thr.t_frames;
  thr.t_depth <- thr.t_depth - 1;
  (match thr.t_frames with
  | [] ->
      st.resched <- true;
      thr.t_status <- Finished;
      st.sink.Sink.thread_exit ~tid:thr.t_id
  | caller :: _ -> (
      match (frame.f_dst, v) with
      | Some d, Some r -> caller.f_regs.(d) <- frame.f_regs.(r)
      | Some _, None ->
          error "method %s returned no value" frame.f_meth.m_key
      | None, _ -> ()));
  (* Recycle only after the return value has been read out of [f_regs]
     and delivered. *)
  recycle_frame st frame

(* Can this thread make progress right now? *)
let ready st t =
  match t.t_status with
  | Runnable -> true
  | Finished -> false
  | Waiting _ -> false (* until notified *)
  | Blocked obj -> (match (monitor_of st obj).owner with None -> true | Some _ -> false)
  | Joining tid -> (
      match (find_thread st tid).t_status with Finished -> true | _ -> false)

(* Run one scheduling slice of up to [quantum] instructions on thread
   [t].  Returns when the slice ends, the thread blocks, yields or
   finishes; the result says whether the slice ended at a [Yield] (the
   PCT scheduler deprioritizes the yielder so spin-wait loops cannot
   starve the thread they are waiting on).

   Terminators are slots in the flat stream, but stay what they were in
   the block interpreter: one step that costs no slice budget.

   At a quantum boundary the slice refills its budget in place, instead
   of returning to the scheduler, when [st.resched] is clear and
   [st.steps < refill_below].  PCT passes its next change point there
   (and [Random_walk], whose every decision draws from the RNG, passes
   0, which never refills).  The skipped decision would pick [t] again
   and draw nothing: with the flag clear, no thread's readiness and no
   alive or waiting count has changed since the last decision's scan;
   below the change point no priority has changed; and whenever that
   scan found two or more ready threads, [pick_pct] drew all their
   priorities, so the next decision compares the same numbers.

   The hot ops run in the loop's own match, so the common step costs
   one dispatch and no call; the rest go through [exec_instr]. *)
let run_slice st t quantum ~refill_below =
  t.t_status <- Runnable;
  st.resched <- false;
  let max_steps = st.cfg.max_steps in
  let continue_ = ref true in
  let yielded = ref false in
  let budget = ref quantum in
  while !continue_ && (match t.t_status with Runnable -> true | _ -> false) do
    match t.t_frames with
    | [] -> continue_ := false
    | frame :: _ ->
        (* Inner loop over one frame: [code], [regs], [pc] and the step
           counter stay in locals until the frame changes (call/return),
           the thread stops advancing, or the slice ends.  [frame.f_pc]
           and [st.steps] are flushed at every exit, so anything outside
           this loop (the scheduler's change points, a resumed slice)
           sees exactly the state the per-step version maintained. *)
        let code = frame.f_meth.m_code in
        let regs = frame.f_regs in
        let pc = ref frame.f_pc in
        let steps = ref st.steps in
        let inner = ref true in
        while !inner do
          if !budget <= 0 then begin
            (* Quantum boundary: refill, or end the slice. *)
            if (not st.resched) && !steps < refill_below then
              budget := quantum
            else begin
              continue_ := false;
              inner := false
            end
          end
          else begin
            incr steps;
            if !steps > max_steps then begin
              frame.f_pc <- !pc;
              st.steps <- !steps;
              error "step limit exceeded"
            end;
            match code_at code !pc with
            | Lgoto l -> pc := l
            | Lif (c, tl, fl) -> pc := if regs.%(c) <> 0 then tl else fl
            | Lconst (d, Ir.Cint n) ->
                regs.%(d) <- n;
                incr pc;
                decr budget
            | Lconst (d, Ir.Cbool b) ->
                regs.%(d) <- of_bool b;
                incr pc;
                decr budget
            | Lconst (d, Ir.Cnull) ->
                regs.%(d) <- null;
                incr pc;
                decr budget
            | Lmove (d, s) ->
                regs.%(d) <- regs.%(s);
                incr pc;
                decr budget
            | Lbinop (op, d, l, r) ->
                let a = regs.%(l) and b = regs.%(r) in
                regs.%(d) <-
                  (match op with
                  | Ast.Add -> a + b
                  | Ast.Sub -> a - b
                  | Ast.Mul -> a * b
                  | Ast.Div | Ast.Mod ->
                      if b = 0 then
                        error "division by zero at line %d"
                          frame.f_meth.m_lines.(!pc);
                      (match op with Ast.Div -> a / b | _ -> a mod b)
                  | Ast.Lt -> of_bool (a < b)
                  | Ast.Le -> of_bool (a <= b)
                  | Ast.Gt -> of_bool (a > b)
                  | Ast.Ge -> of_bool (a >= b)
                  (* One category on both sides (checked at link), and
                     the encoding is injective within a category. *)
                  | Ast.Eq -> of_bool (a = b)
                  | Ast.Ne -> of_bool (a <> b)
                  | Ast.And | Ast.Or ->
                      assert false (* expanded into control flow by lowering *));
                incr pc;
                decr budget
            | Lgetfield (d, o, fm) ->
                (* The error label is built only on the failure path:
                   [as_ref]'s [~what] argument would otherwise allocate a
                   string per access. *)
                let obj = regs.%(o) in
                if obj < 0 then null_error (fm.Ir.fm_name ^ " load");
                let index = fm.Ir.fm_index in
                regs.%(d) <- (obj_fields st obj).(index);
                if st.cfg.all_accesses || index >= max_fields then
                  raw_field_access st t ~obj ~index ~kind:Event.Read;
                incr pc;
                decr budget
            | Lgetstatic (d, sm) ->
                regs.%(d) <- st.globals.(sm.Ir.sm_slot);
                if st.cfg.all_accesses then
                  raw_access st t ~loc:(static_loc ~slot:sm.Ir.sm_slot)
                    ~kind:Event.Read;
                incr pc;
                decr budget
            | Laload (d, a, idx) ->
                let arr = as_ref ~what:"array load" regs.%(a) in
                regs.%(d) <- (arr_elems st arr).(regs.%(idx));
                if st.cfg.all_accesses then
                  raw_access st t
                    ~loc:(array_loc ~gran:st.cfg.granularity ~obj:arr)
                    ~kind:Event.Read;
                incr pc;
                decr budget
            | Lnullcheck r ->
                if regs.%(r) < 0 then
                  error "NullPointerException at %s line %d" frame.f_meth.m_key
                    frame.f_meth.m_lines.(!pc);
                incr pc;
                decr budget
            | Lboundscheck (a, idx) ->
                let arr = as_ref ~what:"array access" regs.%(a) in
                let n = Array.length (arr_elems st arr) in
                let k = regs.%(idx) in
                if k < 0 || k >= n then
                  error
                    "ArrayIndexOutOfBoundsException: %d (length %d) at %s \
                     line %d"
                    k n frame.f_meth.m_key frame.f_meth.m_lines.(!pc);
                incr pc;
                decr budget
            | Lcall (dst, target, args, site) ->
                (* Leave this frame parked at the return pc and re-enter
                   on the callee's frame. *)
                exec_call st t regs dst target args site;
                incr pc;
                decr budget;
                inner := false
            | Lyield ->
                incr pc;
                decr budget;
                yielded := true;
                continue_ := false;
                inner := false
            | Lret v ->
                inner := false;
                frame.f_pc <- !pc;
                st.steps <- !steps;
                exec_ret st t frame v
            | Ltrap msg ->
                frame.f_pc <- !pc;
                st.steps <- !steps;
                error "%s in %s" msg frame.f_meth.m_key
            | op ->
                if exec_instr st t frame regs op !pc then begin
                  incr pc;
                  decr budget
                end
                else begin
                  (* Blocked: retry this instruction in a later slice. *)
                  continue_ := false;
                  inner := false
                end
          end
        done;
        frame.f_pc <- !pc;
        st.steps <- !steps
  done;
  !yielded

(* A resettable run context: every array and table one execution needs,
   allocated once and reused across runs.  [run_ctx] resets it at the
   {e start} of each run, so the previous run's [r_heap] stays readable
   until the next run begins on the same context.  The initial sizes
   below must match what [run] historically allocated per run — a reused
   context must grow (and therefore behave) exactly like a fresh one. *)
type ctx = {
  cx_image : image;
  cx_templates : int array array; (* class id -> default field values *)
  cx_globals0 : int array; (* pristine static slots, blitted on reset *)
  cx_globals : int array;
  cx_heap : Heap.t;
  cx_pseudo : Pseudo_lock.t;
  cx_class_obj_ids : int array;
  mutable cx_threads : thread array;
  mutable cx_monitors : monitor option array;
  mutable cx_obj_cls : int array;
  mutable cx_thread_of_obj : int array;
  mutable cx_ready_buf : int array;
  mutable cx_prio : int array; (* PCT priorities, tid-indexed *)
  cx_frame_pool : frame list array; (* free frames, by register count *)
  mutable cx_used : bool; (* a run has touched the context since reset *)
}

let create_ctx (image : image) : ctx =
  let tprog = image.i_prog.Ir.p_tprog in
  let globals0 =
    Array.map
      (fun (sf : Tast.sfield_info) -> Value.slot_default sf.Tast.sf_ty)
      tprog.Tast.statics
  in
  {
    cx_image = image;
    cx_templates = Array.map Heap.template image.i_class_fields;
    cx_globals0 = globals0;
    cx_globals = Array.copy globals0;
    cx_heap = Heap.create ();
    (* Join pseudo-locks live in the heap id space, so they can never
       collide with real lock (object) identities. *)
    cx_pseudo = Pseudo_lock.create ();
    cx_class_obj_ids = Array.make (max (class_count image) 1) (-1);
    cx_threads = Array.make 8 dummy_thread;
    cx_monitors = Array.make 1024 None;
    cx_obj_cls = Array.make 1024 (-1);
    cx_thread_of_obj = Array.make 1024 (-1);
    cx_ready_buf = Array.make 8 0;
    cx_prio = Array.make 8 min_int;
    cx_frame_pool =
      (let max_nregs =
         Array.fold_left
           (fun acc (m : lmethod) -> max acc m.m_nregs)
           0 image.i_methods
       in
       Array.make (max_nregs + 1) []);
    cx_used = false;
  }

(* Whole-array fills rather than tracked dirty extents: the arrays are
   a few thousand words, two orders of magnitude below what rebuilding
   them allocated, and a full fill cannot miss a stale slot. *)
let reset_ctx cx =
  if cx.cx_used then begin
    cx.cx_used <- false;
    Array.blit cx.cx_globals0 0 cx.cx_globals 0 (Array.length cx.cx_globals);
    Heap.clear cx.cx_heap;
    Pseudo_lock.reset cx.cx_pseudo;
    Array.fill cx.cx_class_obj_ids 0 (Array.length cx.cx_class_obj_ids) (-1);
    Array.fill cx.cx_threads 0 (Array.length cx.cx_threads) dummy_thread;
    Array.fill cx.cx_monitors 0 (Array.length cx.cx_monitors) None;
    Array.fill cx.cx_obj_cls 0 (Array.length cx.cx_obj_cls) (-1);
    Array.fill cx.cx_thread_of_obj 0 (Array.length cx.cx_thread_of_obj) (-1);
    Array.fill cx.cx_prio 0 (Array.length cx.cx_prio) min_int
  end

let run_ctx ?(config = default_config) ~sink (cx : ctx) : result =
  reset_ctx cx;
  cx.cx_used <- true;
  let image = cx.cx_image in
  let st =
    {
      image;
      cfg = config;
      sink;
      spec =
        (if config.all_accesses || config.granularity <> Memloc.Per_field then
           None
         else sink.Sink.spec);
      resched = true;
      heap = cx.cx_heap;
      globals = cx.cx_globals;
      threads = cx.cx_threads;
      nthreads = 0;
      monitors = cx.cx_monitors;
      obj_cls = cx.cx_obj_cls;
      thread_of_obj = cx.cx_thread_of_obj;
      class_obj_ids = cx.cx_class_obj_ids;
      templates = cx.cx_templates;
      ready_buf = cx.cx_ready_buf;
      (* Survives resets on purpose: parked frames carry no state a
         reuse does not overwrite, and their registers are refilled with
         null before handing them out. *)
      frame_pool = cx.cx_frame_pool;
      pseudo = cx.cx_pseudo;
      rng = Random.State.make [| config.seed |];
      steps = 0;
      prints = [];
    }
  in
  let main = image.i_methods.(image.i_main) in
  ignore (new_thread st [ alloc_frame st main None ]);
  (* Scheduling policy (PCT state lives outside the thread records).
     PCT (Burckhardt et al., ASPLOS 2010): every thread gets a random
     priority above [depth]; the scheduler always runs the
     highest-priority ready thread; at [depth] pre-chosen step counts
     within [horizon] the running thread's priority drops to the rank of
     the change point (below every initial priority).  All randomness
     comes from the seeded [st.rng], so a (seed, policy) pair names one
     schedule exactly. *)
  (* Thread priorities, indexed by tid (dense, never reused).  [min_int]
     marks "not yet assigned" — real priorities are either non-negative
     (initial draws, change-point ranks) or small negatives (the yield
     floor), so the sentinel cannot collide.  Starts from the context's
     pooled array, which [reset_ctx] refilled with the sentinel. *)
  let pct_prio = ref cx.cx_prio in
  let prio_slot tid =
    if tid >= Array.length !pct_prio then begin
      let b = Array.make (max 8 (2 * (tid + 1))) min_int in
      Array.blit !pct_prio 0 b 0 (Array.length !pct_prio);
      pct_prio := b
    end;
    !pct_prio
  in
  (* Monotonically decreasing floor for yield-deprioritization: change
     points assign ranks 0..depth-1, so yielders go below them, most
     recent lowest — round-robin among spinning threads. *)
  let pct_floor = ref 0 in
  let pct_points =
    ref
      (match config.policy with
      | Random_walk -> []
      | Pct { depth; horizon } ->
          List.init depth (fun rank ->
              (1 + Random.State.int st.rng (max horizon 1), rank))
          |> List.sort compare)
  in
  let prio_of t =
    let a = prio_slot t.t_id in
    let p = a.(t.t_id) in
    if p <> min_int then p
    else begin
      let depth =
        match config.policy with Pct { depth; _ } -> depth | _ -> 0
      in
      let p = depth + Random.State.int st.rng 0x3FFFFFFF in
      a.(t.t_id) <- p;
      p
    end
  in
  let pick_pct nready =
    (* Highest priority wins; ties (vanishingly rare) go to the lowest
       thread id for determinism.  This walks [ready_buf] in the order
       the frozen interpreter's fold walked its ready list, with the
       comparison written as the same two-binding [let] — lazy priority
       draws consume the RNG identically. *)
    let best = ref st.threads.(st.ready_buf.(0)) in
    for i = 1 to nready - 1 do
      let t = st.threads.(st.ready_buf.(i)) in
      let b = !best in
      let pb = prio_of b and pt = prio_of t in
      if pt > pb || (pt = pb && t.t_id < b.t_id) then best := t
    done;
    !best
  in
  let cross_change_points t =
    match !pct_points with
    | (steps_at, rank) :: rest when st.steps >= steps_at ->
        (prio_slot t.t_id).(t.t_id) <- rank;
        pct_points := rest
    | _ -> ()
  in
  (* One scheduling decision: scan threads newest-first (the order the
     block interpreter kept its thread list in — RNG consumption depends
     on it) into the reusable ready buffer, then let the policy pick. *)
  let rec loop () =
    if Array.length st.ready_buf < st.nthreads then
      st.ready_buf <- Array.make (2 * st.nthreads) 0;
    let nalive = ref 0 and nready = ref 0 and nwaiting = ref 0 in
    for tid = st.nthreads - 1 downto 0 do
      let t = st.threads.(tid) in
      match t.t_status with
      | Finished -> ()
      | s ->
          incr nalive;
          (match s with Waiting _ -> incr nwaiting | _ -> ());
          if ready st t then begin
            st.ready_buf.(!nready) <- tid;
            incr nready
          end
    done;
    if !nalive > 0 then begin
      (if !nready = 0 then
         if !nwaiting > 0 then
           error
             "deadlock: %d of %d remaining threads are stuck in wait() with \
              no runnable thread left to notify them"
             !nwaiting !nalive
         else error "deadlock: no runnable thread among %d" !nalive);
      (match config.policy with
      | Random_walk ->
          let k = Random.State.int st.rng !nready in
          let t = st.threads.(st.ready_buf.(k)) in
          let n = 1 + Random.State.int st.rng config.quantum in
          ignore (run_slice st t n ~refill_below:0 : bool)
      | Pct _ ->
          let t = pick_pct !nready in
          let refill_below =
            match !pct_points with (steps_at, _) :: _ -> steps_at | [] -> max_int
          in
          let yielded =
            run_slice st t (max config.quantum 1) ~refill_below
          in
          cross_change_points t;
          if yielded then begin
            decr pct_floor;
            (prio_slot t.t_id).(t.t_id) <- !pct_floor
          end);
      loop ()
    end
  in
  (* The run may replace the growable arrays ([ensure], [new_thread],
     [prio_slot] all reallocate on demand); write them back to the
     context on BOTH exits — normal completion and a [Runtime_error]
     escape — so that resetting after an aborted run clears the arrays
     the run actually used, never a stale pre-growth copy. *)
  Fun.protect
    ~finally:(fun () ->
      cx.cx_threads <- st.threads;
      cx.cx_monitors <- st.monitors;
      cx.cx_obj_cls <- st.obj_cls;
      cx.cx_thread_of_obj <- st.thread_of_obj;
      cx.cx_ready_buf <- st.ready_buf;
      cx.cx_prio <- !pct_prio)
    loop;
  {
    r_prints = List.rev st.prints;
    r_steps = st.steps;
    r_max_threads = st.nthreads;
    r_heap = st.heap;
  }

let run ?config ~sink (image : image) : result =
  run_ctx ?config ~sink (create_ctx image)
