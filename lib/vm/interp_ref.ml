module Tast = Drd_lang.Tast
open Drd_core
open Drd_ir.Ir
module Ir = Drd_ir.Ir

(* The pre-link block interpreter, frozen verbatim when the linked-image
   interpreter ([Interp]) replaced it: methods looked up by "Class.name"
   string in a hashtable, virtual calls dispatched by a [Tast.dispatch]
   hierarchy walk, blocks executed by consing down [instr list], threads
   found by [List.find].

   It exists for two reasons:

   - it is the golden reference the byte-identity suite diffs the linked
     interpreter against (every report, recorded event log and hb
     fingerprint must match exactly, for every example program and
     scheduling policy);
   - it is the reference side of CI's engine diff, which compares
     `racedet run --engine ref` against the linked and specialized
     engines end to end.

   Do not "fix" or optimize this module: its value is that it does not
   change.  It shares [Interp]'s config/policy/result types and
   [Interp.Runtime_error] so harness code can drive either engine
   through one interface.  The deltas from the frozen source:

   - the [Call] pattern arity (the IR now carries a call-site id, which
     this engine ignores, still reporting site -1 to [Sink.call] as it
     always did);
   - [Heap] stores object fields and array elements slot-encoded
     ([Value.to_slot]) for both engines, so this engine encodes on heap
     stores and decodes heap loads by the destination register's static
     type.  Its registers and statics stay boxed [Value.t]s and keep
     every dynamic type check;
   - the heap budget ([Heap.max_slots]) and the call-depth bound
     ([Interp.max_call_depth]), which fail a run identically in both
     engines. *)

type policy = Interp.policy =
  | Random_walk
  | Pct of { depth : int; horizon : int }

type config = Interp.config = {
  seed : int;
  quantum : int;
  max_steps : int;
  all_accesses : bool;
  granularity : Memloc.granularity;
  pseudo_locks : bool;
  policy : policy;
}

let default_config = Interp.default_config

type result = Interp.result = {
  r_prints : (string * Value.t option) list;
  r_steps : int;
  r_max_threads : int;
  r_heap : Heap.t;
}

type frame = {
  f_mir : mir;
  f_regs : Value.t array;
  mutable f_block : int;
  mutable f_pc : instr list; (* remaining instructions of the block *)
  f_dst : reg option; (* caller register receiving the return value *)
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

type st = {
  prog : program;
  cfg : config;
  sink : Sink.t;
  heap : Heap.t;
  globals : Value.t array; (* static field slots *)
  mutable threads : thread list; (* reverse creation order *)
  mutable nthreads : int;
  monitors : (int, monitor) Hashtbl.t;
  class_objs : (string, int) Hashtbl.t;
  thread_of_obj : (int, int) Hashtbl.t;
  pseudo : Pseudo_lock.t;
  rng : Random.State.t;
  mutable steps : int;
  mutable prints : (string * Value.t option) list; (* reverse order *)
}

let error fmt = Format.kasprintf (fun m -> raise (Interp.Runtime_error m)) fmt

let frame_of st key dst args =
  match find_mir st.prog key with
  | None -> error "no such method %s" key
  | Some m ->
      let regs = Array.make (max m.mir_nregs 1) Value.Vnull in
      List.iteri (fun i v -> regs.(i) <- v) args;
      {
        f_mir = m;
        f_regs = regs;
        f_block = m.mir_entry;
        f_pc = m.mir_blocks.(m.mir_entry).b_instrs;
        f_dst = dst;
      }

let find_thread st tid = List.find (fun t -> t.t_id = tid) st.threads

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
    Pseudo_lock.on_thread_start st.pseudo tid s;
    t.t_lockset <- Pseudo_lock.locks_of st.pseudo tid
  end;
  st.threads <- t :: st.threads;
  t

let monitor_of st obj =
  match Hashtbl.find_opt st.monitors obj with
  | Some m -> m
  | None ->
      let m = { owner = None; count = 0; waiters = [] } in
      Hashtbl.add st.monitors obj m;
      m

let class_obj st cls =
  match Hashtbl.find_opt st.class_objs cls with
  | Some id -> id
  | None ->
      let id = Heap.alloc_opaque st.heap ("class " ^ cls) in
      Hashtbl.add st.class_objs cls id;
      id

let as_ref ~what = function
  | Value.Vref o -> o
  | Value.Vnull -> error "NullPointerException (%s)" what
  | _ -> error "type confusion: expected reference (%s)" what

let obj_fields st o =
  match Heap.get st.heap o with
  | Heap.Obj { fields; _ } -> fields
  | _ -> error "type confusion: expected object #%d" o

let arr_elems st o =
  match Heap.get st.heap o with
  | Heap.Arr { elems } -> elems
  | _ -> error "type confusion: expected array #%d" o

(* A heap load's value, decoded by the static type of register [d]. *)
let load frame d slot = Value.of_slot frame.f_mir.mir_reg_tys.(d) slot

let emit_access st thr ~loc ~kind ~site =
  st.sink.Sink.access ~tid:thr.t_id ~loc ~kind ~locks:thr.t_lockset ~site

let raw_access st thr ~loc ~kind =
  if st.cfg.all_accesses then emit_access st thr ~loc ~kind ~site:(-1)

(* Execute one instruction of the top frame.  Returns [false] when the
   thread must retry the same instruction later (blocked). *)
let exec_instr st thr frame (i : instr) : bool =
  let regs = frame.f_regs in
  let gran = st.cfg.granularity in
  match i.i_op with
  | Const (d, Cint n) ->
      regs.(d) <- Value.Vint n;
      true
  | Const (d, Cbool b) ->
      regs.(d) <- Value.Vbool b;
      true
  | Const (d, Cnull) ->
      regs.(d) <- Value.Vnull;
      true
  | Move (d, s) ->
      regs.(d) <- regs.(s);
      true
  | Binop (op, d, l, r) ->
      let v =
        match op with
        | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
            let a = Value.to_int regs.(l) and b = Value.to_int regs.(r) in
            let n =
              match op with
              | Ast.Add -> a + b
              | Ast.Sub -> a - b
              | Ast.Mul -> a * b
              | Ast.Div ->
                  if b = 0 then error "division by zero at line %d" i.i_line
                  else a / b
              | Ast.Mod ->
                  if b = 0 then error "division by zero at line %d" i.i_line
                  else a mod b
              | _ -> assert false
            in
            Value.Vint n
        | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
            let a = Value.to_int regs.(l) and b = Value.to_int regs.(r) in
            Value.Vbool
              (match op with
              | Ast.Lt -> a < b
              | Ast.Le -> a <= b
              | Ast.Gt -> a > b
              | _ -> a >= b)
        | Ast.Eq -> Value.Vbool (regs.(l) = regs.(r))
        | Ast.Ne -> Value.Vbool (regs.(l) <> regs.(r))
        | Ast.And | Ast.Or ->
            assert false (* expanded into control flow by lowering *)
      in
      regs.(d) <- v;
      true
  | Unop (Ast.Neg, d, s) ->
      regs.(d) <- Value.Vint (-Value.to_int regs.(s));
      true
  | Unop (Ast.Not, d, s) ->
      regs.(d) <- Value.Vbool (not (Value.to_bool regs.(s)));
      true
  | GetField (d, o, fm) ->
      let obj = as_ref ~what:(fm.fm_name ^ " load") regs.(o) in
      regs.(d) <- load frame d (obj_fields st obj).(fm.fm_index);
      raw_access st thr
        ~loc:(Memloc.field ~gran ~obj ~index:fm.fm_index)
        ~kind:Event.Read;
      true
  | PutField (o, fm, s) ->
      let obj = as_ref ~what:(fm.fm_name ^ " store") regs.(o) in
      (obj_fields st obj).(fm.fm_index) <- Value.to_slot regs.(s);
      raw_access st thr
        ~loc:(Memloc.field ~gran ~obj ~index:fm.fm_index)
        ~kind:Event.Write;
      true
  | GetStatic (d, sm) ->
      regs.(d) <- st.globals.(sm.sm_slot);
      raw_access st thr ~loc:(Memloc.static ~gran ~slot:sm.sm_slot)
        ~kind:Event.Read;
      true
  | PutStatic (sm, s) ->
      st.globals.(sm.sm_slot) <- regs.(s);
      raw_access st thr ~loc:(Memloc.static ~gran ~slot:sm.sm_slot)
        ~kind:Event.Write;
      true
  | ALoad (d, a, idx) ->
      let arr = as_ref ~what:"array load" regs.(a) in
      regs.(d) <- load frame d (arr_elems st arr).(Value.to_int regs.(idx));
      raw_access st thr ~loc:(Memloc.array ~gran ~obj:arr) ~kind:Event.Read;
      true
  | AStore (a, idx, s) ->
      let arr = as_ref ~what:"array store" regs.(a) in
      (arr_elems st arr).(Value.to_int regs.(idx)) <- Value.to_slot regs.(s);
      raw_access st thr ~loc:(Memloc.array ~gran ~obj:arr) ~kind:Event.Write;
      true
  | NewObj (d, cls) ->
      let ci = Hashtbl.find st.prog.p_tprog.Tast.classes cls in
      regs.(d) <-
        Value.Vref
          (Heap.alloc_obj st.heap ~cls (Heap.template ci.Tast.cls_fields));
      true
  | NewArr (d, elem, dims) ->
      let ds = List.map (fun r -> Value.to_int regs.(r)) dims in
      List.iter
        (fun n -> if n < 0 then error "negative array size at line %d" i.i_line)
        ds;
      regs.(d) <- Value.Vref (Heap.alloc_arr st.heap elem ds);
      true
  | ArrLen (d, a) ->
      let arr = as_ref ~what:"length" regs.(a) in
      regs.(d) <- Value.Vint (Array.length (arr_elems st arr));
      true
  | ClassObj (d, cls) ->
      regs.(d) <- Value.Vref (class_obj st cls);
      true
  | NullCheck r ->
      (match regs.(r) with
      | Value.Vnull ->
          error "NullPointerException at %s line %d" (mir_key frame.f_mir)
            i.i_line
      | _ -> ());
      true
  | BoundsCheck (a, idx) ->
      let arr = as_ref ~what:"array access" regs.(a) in
      let n = Array.length (arr_elems st arr) in
      let k = Value.to_int regs.(idx) in
      if k < 0 || k >= n then
        error "ArrayIndexOutOfBoundsException: %d (length %d) at %s line %d" k
          n (mir_key frame.f_mir) i.i_line;
      true
  | Call (dst, target, args, _) ->
      let argv = List.map (fun r -> regs.(r)) args in
      let key =
        match target with
        | Static (cls, name) -> cls ^ "." ^ name
        | Ctor cls -> cls ^ ".<init>"
        | Virtual (_, name) -> (
            let recv = as_ref ~what:("call " ^ name) (List.hd argv) in
            (match st.sink.Sink.call with
            | Some f ->
                f ~tid:thr.t_id ~obj:recv ~locks:thr.t_lockset ~site:(-1)
            | None -> ());
            let cls = Heap.class_of st.heap recv in
            match Tast.dispatch st.prog.p_tprog cls name with
            | Some m -> m.Tast.tm_class ^ "." ^ name
            | None -> error "no method %s on class %s" name cls)
      in
      if thr.t_depth >= Interp.max_call_depth then
        error "StackOverflowError in %s" key;
      thr.t_frames <- frame_of st key dst argv :: thr.t_frames;
      thr.t_depth <- thr.t_depth + 1;
      true
  | MonitorEnter (r, _) -> (
      let obj = as_ref ~what:"monitorenter" regs.(r) in
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
  | MonitorExit (r, _) ->
      let obj = as_ref ~what:"monitorexit" regs.(r) in
      let m = monitor_of st obj in
      if m.owner <> Some thr.t_id then
        error "IllegalMonitorStateException at %s line %d"
          (mir_key frame.f_mir) i.i_line;
      m.count <- m.count - 1;
      if m.count = 0 then begin
        m.owner <- None;
        Hashtbl.remove thr.t_held obj;
        thr.t_lockset <- Lockset_id.remove obj thr.t_lockset;
        st.sink.Sink.release ~tid:thr.t_id ~lock:obj
      end
      else Hashtbl.replace thr.t_held obj m.count;
      true
  | ThreadStart r ->
      let obj = as_ref ~what:"start" regs.(r) in
      if Hashtbl.mem st.thread_of_obj obj then
        error "IllegalThreadStateException: thread #%d started twice" obj;
      let cls = Heap.class_of st.heap obj in
      let key =
        match Tast.dispatch st.prog.p_tprog cls "run" with
        | Some m -> m.Tast.tm_class ^ ".run"
        | None -> error "class %s has no run method" cls
      in
      let child = new_thread st [ frame_of st key None [ Value.Vref obj ] ] in
      Hashtbl.add st.thread_of_obj obj child.t_id;
      st.sink.Sink.thread_start ~parent:thr.t_id ~child:child.t_id;
      true
  | ThreadJoin r -> (
      let obj = as_ref ~what:"join" regs.(r) in
      match Hashtbl.find_opt st.thread_of_obj obj with
      | None -> true (* joining a never-started thread returns at once *)
      | Some tid ->
          let target = find_thread st tid in
          if target.t_status = Finished then begin
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
          end)
  | Wait r -> (
      let obj = as_ref ~what:"wait" regs.(r) in
      let m = monitor_of st obj in
      match thr.t_wait with
      | None ->
          (* Phase 1: release the monitor entirely and join the wait
             set.  Resumes at this same instruction once notified. *)
          if m.owner <> Some thr.t_id then
            error "IllegalMonitorStateException: wait at %s line %d without \
                   owning the monitor"
              (mir_key frame.f_mir) i.i_line;
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
  | Notify (r, all) ->
      let obj = as_ref ~what:"notify" regs.(r) in
      let m = monitor_of st obj in
      if m.owner <> Some thr.t_id then
        error "IllegalMonitorStateException: notify at %s line %d without \
               owning the monitor"
          (mir_key frame.f_mir) i.i_line;
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
  | Yield -> true
  | Print (tag, r) ->
      let v = Option.map (fun r -> regs.(r)) r in
      st.prints <- (tag, v) :: st.prints;
      true
  | Trace t ->
      let loc =
        match t.tr_target with
        | Tr_field (o, fm) ->
            let obj = as_ref ~what:"trace" regs.(o) in
            Memloc.field ~gran ~obj ~index:fm.fm_index
        | Tr_static sm -> Memloc.static ~gran ~slot:sm.sm_slot
        | Tr_array (a, _) ->
            Memloc.array ~gran ~obj:(as_ref ~what:"trace" regs.(a))
      in
      emit_access st thr ~loc ~kind:t.tr_kind ~site:t.tr_site;
      true

let exec_term st thr frame =
  let regs = frame.f_regs in
  match (block frame.f_mir frame.f_block).b_term with
  | Goto l ->
      frame.f_block <- l;
      frame.f_pc <- (block frame.f_mir l).b_instrs
  | If (c, t, f) ->
      let l = if Value.to_bool regs.(c) then t else f in
      frame.f_block <- l;
      frame.f_pc <- (block frame.f_mir l).b_instrs
  | Ret v -> (
      let value = Option.map (fun r -> regs.(r)) v in
      thr.t_frames <- List.tl thr.t_frames;
      thr.t_depth <- thr.t_depth - 1;
      match thr.t_frames with
      | [] ->
          thr.t_status <- Finished;
          st.sink.Sink.thread_exit ~tid:thr.t_id
      | caller :: _ -> (
          match (frame.f_dst, value) with
          | Some d, Some v -> caller.f_regs.(d) <- v
          | Some _, None ->
              error "method %s returned no value" (mir_key frame.f_mir)
          | None, _ -> ()))
  | Trap msg -> error "%s in %s" msg (mir_key frame.f_mir)

(* Can this thread make progress right now? *)
let ready st t =
  match t.t_status with
  | Runnable -> true
  | Finished -> false
  | Waiting _ -> false (* until notified *)
  | Blocked obj -> (monitor_of st obj).owner = None
  | Joining tid -> (find_thread st tid).t_status = Finished

(* Run one scheduling slice of up to [n] instructions on thread [t].
   Returns when the slice ends, the thread blocks, yields or finishes;
   the result says whether the slice ended at a [Yield] (the PCT
   scheduler deprioritizes the yielder so spin-wait loops cannot starve
   the thread they are waiting on). *)
let run_slice st t n =
  t.t_status <- Runnable;
  let continue_ = ref true in
  let yielded = ref false in
  let budget = ref n in
  while !continue_ && !budget > 0 && t.t_status = Runnable do
    match t.t_frames with
    | [] -> continue_ := false
    | frame :: _ -> (
        st.steps <- st.steps + 1;
        if st.steps > st.cfg.max_steps then error "step limit exceeded";
        match frame.f_pc with
        | [] -> exec_term st t frame
        | i :: rest ->
            let advanced = exec_instr st t frame i in
            if advanced then begin
              (* The instruction may have pushed a new frame; [frame]
                 still designates the frame the instruction came from. *)
              frame.f_pc <- rest;
              decr budget;
              if i.i_op = Yield then begin
                continue_ := false;
                yielded := true
              end
            end
            else continue_ := false)
  done;
  !yielded

let run ?(config = default_config) ~sink (prog : program) : result =
  let heap = Heap.create () in
  (* Join pseudo-locks live in the heap id space, so they can never
     collide with real lock (object) identities. *)
  let pseudo = Pseudo_lock.create () in
  let globals =
    Array.map
      (fun (sf : Tast.sfield_info) -> Value.default_of sf.Tast.sf_ty)
      prog.p_tprog.Tast.statics
  in
  let st =
    {
      prog;
      cfg = config;
      sink;
      heap;
      globals;
      threads = [];
      nthreads = 0;
      monitors = Hashtbl.create 64;
      class_objs = Hashtbl.create 16;
      thread_of_obj = Hashtbl.create 16;
      pseudo;
      rng = Random.State.make [| config.seed |];
      steps = 0;
      prints = [];
    }
  in
  ignore (new_thread st [ frame_of st prog.p_main None [] ]);
  (* Scheduling policy (PCT state lives outside the thread records).
     PCT (Burckhardt et al., ASPLOS 2010): every thread gets a random
     priority above [depth]; the scheduler always runs the
     highest-priority ready thread; at [depth] pre-chosen step counts
     within [horizon] the running thread's priority drops to the rank of
     the change point (below every initial priority).  All randomness
     comes from the seeded [st.rng], so a (seed, policy) pair names one
     schedule exactly. *)
  let pct_prio : (int, int) Hashtbl.t = Hashtbl.create 8 in
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
    match Hashtbl.find_opt pct_prio t.t_id with
    | Some p -> p
    | None ->
        let depth =
          match config.policy with Pct { depth; _ } -> depth | _ -> 0
        in
        let p = depth + Random.State.int st.rng 0x3FFFFFFF in
        Hashtbl.add pct_prio t.t_id p;
        p
  in
  let pick_pct ready_threads =
    (* Highest priority wins; ties (vanishingly rare) go to the lowest
       thread id for determinism. *)
    List.fold_left
      (fun best t ->
        match best with
        | None -> Some t
        | Some b ->
            let pb = prio_of b and pt = prio_of t in
            if pt > pb || (pt = pb && t.t_id < b.t_id) then Some t else Some b)
      None ready_threads
    |> Option.get
  in
  let cross_change_points t =
    match !pct_points with
    | (steps_at, rank) :: rest when st.steps >= steps_at ->
        Hashtbl.replace pct_prio t.t_id rank;
        pct_points := rest
    | _ -> ()
  in
  let rec loop () =
    let alive = List.filter (fun t -> t.t_status <> Finished) st.threads in
    if alive <> [] then begin
      let ready_threads = List.filter (ready st) alive in
      (match ready_threads with
      | [] ->
          let waiting =
            List.length
              (List.filter
                 (fun t -> match t.t_status with Waiting _ -> true | _ -> false)
                 alive)
          in
          if waiting > 0 then
            error
              "deadlock: %d of %d remaining threads are stuck in wait() with \
               no runnable thread left to notify them"
              waiting (List.length alive)
          else error "deadlock: no runnable thread among %d" (List.length alive)
      | _ -> (
          match config.policy with
          | Random_walk ->
              let k = Random.State.int st.rng (List.length ready_threads) in
              let t = List.nth ready_threads k in
              let n = 1 + Random.State.int st.rng config.quantum in
              ignore (run_slice st t n : bool)
          | Pct _ ->
              let t = pick_pct ready_threads in
              let yielded = run_slice st t (max config.quantum 1) in
              cross_change_points t;
              if yielded then begin
                decr pct_floor;
                Hashtbl.replace pct_prio t.t_id !pct_floor
              end));
      loop ()
    end
  in
  loop ();
  {
    r_prints = List.rev st.prints;
    r_steps = st.steps;
    r_max_threads = st.nthreads;
    r_heap = st.heap;
  }
