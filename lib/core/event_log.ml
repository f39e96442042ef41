type entry =
  | Access of Event.t
  | Acquire of Event.thread_id * Event.lock_id
  | Release of Event.thread_id * Event.lock_id
  | Thread_start of Event.thread_id * Event.thread_id
  | Thread_join of Event.thread_id * Event.thread_id
  | Thread_exit of Event.thread_id

(* Array-backed storage: recording is an amortized store, and replay
   iterates in place — the old reversed-list representation rebuilt the
   whole log as a fresh list (one cons per entry) on every [entries]
   call, which sat inside the timed region of the replay benchmarks. *)
type t = { mutable arr : entry array; mutable n : int }

let dummy = Thread_exit (-1)

let create () = { arr = [||]; n = 0 }

let record t e =
  let cap = Array.length t.arr in
  if t.n = cap then begin
    let arr = Array.make (max 1024 (cap * 2)) dummy in
    Array.blit t.arr 0 arr 0 cap;
    t.arr <- arr
  end;
  t.arr.(t.n) <- e;
  t.n <- t.n + 1

let length t = t.n

let iter f t =
  for i = 0 to t.n - 1 do
    f t.arr.(i)
  done

let entries t = Array.to_list (Array.sub t.arr 0 t.n)

let replay t det =
  iter
    (function
      | Access e -> Detector.on_access det e
      | Acquire (thread, lock) -> Detector.on_acquire det ~thread ~lock
      | Release (thread, lock) -> Detector.on_release det ~thread ~lock
      | Thread_start _ | Thread_join _ -> ()
      | Thread_exit thread -> Detector.on_thread_exit det ~thread)
    t

(* Text serialization: one entry per line.
     A <loc> <thread> <R|W> <site> <lock>*      access
     L <thread> <lock>                          acquire
     U <thread> <lock>                          release
     S <parent> <child>                         thread start
     J <joiner> <joinee>                        thread join
     X <thread>                                 thread exit *)

let entry_to_line e =
  let b = Buffer.create 32 in
  (match e with
  | Access e ->
      Printf.bprintf b "A %d %d %c %d" e.Event.loc e.Event.thread
        (match e.Event.kind with Event.Read -> 'R' | Event.Write -> 'W')
        e.Event.site;
      List.iter (Printf.bprintf b " %d")
        (Lockset_id.to_sorted_list e.Event.locks)
  | Acquire (t, l) -> Printf.bprintf b "L %d %d" t l
  | Release (t, l) -> Printf.bprintf b "U %d %d" t l
  | Thread_start (p, c) -> Printf.bprintf b "S %d %d" p c
  | Thread_join (j, e) -> Printf.bprintf b "J %d %d" j e
  | Thread_exit t -> Printf.bprintf b "X %d" t);
  Buffer.contents b

let to_channel oc t =
  iter
    (fun e ->
      output_string oc (entry_to_line e);
      output_char oc '\n')
    t

(* The single-line decoder every consumer shares: the whole-file parser
   below and the streaming daemon, which hands over each line where it
   lies in its connection buffer.  One pass over the line's bytes finds
   the fields by index and parses plain decimal digits in place; every
   other token goes through [int_of_string_opt], and the line is
   trimmed with [String.trim]'s whitespace and split on single spaces,
   so the accepted language is exactly that of splitting the trimmed
   line on ' '.  When several fields are bad, the one reported is the
   one the split-based decoder reported: for an access the kind, then
   the site, then the first bad lock, then the thread, then the
   location; for the two-field entries the second field. *)

let is_trimmed c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

(* The end of the field starting at [i]: the next ' ' before [e], or
   [e]. *)
let rec field_end s i e =
  if i >= e || String.unsafe_get s i = ' ' then i else field_end s (i + 1) e

(* Up to 18 digits cannot overflow an OCaml int. *)
let max_plain_digits = 18

(* Where the next field starts; one per decoded line. *)
type cursor = { mutable at : int }

exception Not_int

(* The int field at [c.at], leaving [c.at] at its end (also when it
   raises [Not_int]). *)
let int_field c s e =
  let b = c.at in
  let k = ref b and n = ref 0 in
  while
    !k < e
    &&
    let ch = String.unsafe_get s !k in
    ch >= '0' && ch <= '9'
  do
    n := (!n * 10) + Char.code (String.unsafe_get s !k) - 48;
    incr k
  done;
  if
    !k > b
    && !k - b <= max_plain_digits
    && (!k = e || String.unsafe_get s !k = ' ')
  then begin
    c.at <- !k;
    !n
  end
  else begin
    let j = field_end s !k e in
    c.at <- j;
    match int_of_string_opt (String.sub s b (j - b)) with
    | Some n -> n
    | None -> raise_notrace Not_int
  end

(* Error results: the message quotes the whole line as given. *)
let bad s pos len reason =
  Error (Printf.sprintf "%s in %S" reason (String.sub s pos len))

let not_int s pos len name i j =
  bad s pos len
    (Printf.sprintf "%s %S is not an integer" name (String.sub s i (j - i)))

let unknown_tag s pos len b j =
  bad s pos len
    (Printf.sprintf
       "unknown entry tag %S (expected A, L, U, S, J or X) or wrong field \
        count"
       (String.sub s b (j - b)))

(* The locks from [c.at] (a separator, or [e]) on, all known to be
   ints. *)
let rec lock_list c s e =
  if c.at >= e then []
  else begin
    c.at <- c.at + 1;
    let l = int_field c s e in
    l :: lock_list c s e
  end

(* "A <loc> <thread> <R|W> <site> <lock>*"; [b] is the tag, [e] the
   trimmed end.  A bad location or thread is only reported once the
   fields the split-based decoder checked first are known good. *)
let access s pos len b e =
  let c = { at = b + 2 } in
  let loc_ok = ref true and thread_ok = ref true in
  let loc_b = c.at in
  let loc =
    match int_field c s e with
    | v -> v
    | exception Not_int ->
        loc_ok := false;
        0
  in
  let loc_e = c.at in
  let thread_b = loc_e + 1 in
  c.at <- thread_b;
  let thread =
    if loc_e >= e then 0
    else
      match int_field c s e with
      | v -> v
      | exception Not_int ->
          thread_ok := false;
          0
  in
  let thread_e = c.at in
  let kind_b = thread_e + 1 in
  let kind_e = field_end s kind_b e in
  if loc_e >= e || thread_e >= e || kind_e >= e then
    unknown_tag s pos len b (b + 1)
  else
    match String.unsafe_get s kind_b with
    | ('R' | 'W') as k when kind_e - kind_b = 1 -> (
        let kind = if k = 'R' then Event.Read else Event.Write in
        let site_b = kind_e + 1 in
        c.at <- site_b;
        match int_field c s e with
        | exception Not_int -> not_int s pos len "site" site_b c.at
        | site ->
            let site_e = c.at in
            (* Walk the locks through the sequence memo. *)
            let seq = ref Lockset_id.seq_empty and bad_lock = ref (-1) in
            if c.at < e then begin
              let memo = Lockset_id.seq_memo () in
              while !bad_lock < 0 && c.at < e do
                let lb = c.at + 1 in
                c.at <- lb;
                match int_field c s e with
                | l -> seq := Lockset_id.seq_add memo !seq l
                | exception Not_int -> bad_lock := lb
              done
            end;
            if !bad_lock >= 0 then not_int s pos len "lock" !bad_lock c.at
            else
              let locks =
                let id = Lockset_id.seq_id !seq in
                if id >= 0 then id
                else begin
                  c.at <- site_e;
                  Lockset_id.of_seq_list (lock_list c s e)
                end
              in
              if not !thread_ok then
                not_int s pos len "thread" thread_b thread_e
              else if not !loc_ok then
                not_int s pos len "location" loc_b loc_e
              else
                Ok
                  (Some
                     (Access
                        (Event.make_interned ~loc ~thread ~locks ~kind ~site))))
    | _ ->
        bad s pos len
          (Printf.sprintf "access kind %S is not R or W"
             (String.sub s kind_b (kind_e - kind_b)))

(* "<tag> <f1> <f2>" for L, U, S and J. *)
let two_fields s pos len b e name1 name2 make =
  let c = { at = b + 2 } in
  let f1_ok = ref true in
  let f1 =
    match int_field c s e with
    | v -> v
    | exception Not_int ->
        f1_ok := false;
        0
  in
  let f1_e = c.at in
  let f2_b = f1_e + 1 in
  if f1_e >= e || field_end s f2_b e <> e then unknown_tag s pos len b (b + 1)
  else begin
    c.at <- f2_b;
    match int_field c s e with
    | exception Not_int -> not_int s pos len name2 f2_b e
    | f2 ->
        if !f1_ok then Ok (Some (make f1 f2))
        else not_int s pos len name1 (b + 2) f1_e
  end

let entry_of_substring s pos len =
  let b = ref pos and e = ref (pos + len) in
  while !b < !e && is_trimmed (String.unsafe_get s !b) do incr b done;
  while !e > !b && is_trimmed (String.unsafe_get s (!e - 1)) do decr e done;
  let b = !b and e = !e in
  if b = e then Ok None
  else
    let tag_e = field_end s b e in
    if tag_e - b <> 1 || tag_e = e then unknown_tag s pos len b tag_e
    else
      match String.unsafe_get s b with
      | 'A' -> access s pos len b e
      | 'L' -> two_fields s pos len b e "thread" "lock" (fun t l -> Acquire (t, l))
      | 'U' -> two_fields s pos len b e "thread" "lock" (fun t l -> Release (t, l))
      | 'S' ->
          two_fields s pos len b e "parent" "child" (fun p c -> Thread_start (p, c))
      | 'J' ->
          two_fields s pos len b e "joiner" "joinee" (fun j o -> Thread_join (j, o))
      | 'X' -> (
          let c = { at = tag_e + 1 } in
          match int_field c s e with
          | exception Not_int ->
              if c.at = e then not_int s pos len "thread" (tag_e + 1) e
              else unknown_tag s pos len b tag_e
          | t ->
              if c.at = e then Ok (Some (Thread_exit t))
              else unknown_tag s pos len b tag_e)
      | _ -> unknown_tag s pos len b tag_e

let entry_of_line line = entry_of_substring line 0 (String.length line)

let of_channel ic =
  let t = create () in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       match entry_of_line line with
       | Ok None -> ()
       | Ok (Some entry) -> record t entry
       | Error m ->
           failwith (Printf.sprintf "Event_log: line %d: %s" !lineno m)
     done
   with End_of_file -> ());
  t

let equal_entry a b =
  match (a, b) with
  | Access x, Access y -> Event.equal x y
  | x, y -> x = y
