(* In-memory spans around the benchmark's calls into each layer.

   A span records its name, the unit of work it belongs to (run index,
   session index or program index), its parent span and its start and
   end.  Spans nest on one domain, so the parent is whatever span was
   open when it started.  A span's self time is its duration minus the
   durations of its children.  Nothing is written until [write]. *)

module W = Util.W

type t = {
  s_name : string;
  s_unit : int;
  s_parent : int; (* index of the enclosing span, or -1 *)
  s_start : float;
  mutable s_stop : float;
}

let spans : t array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []

(* Spans are only kept while enabled; a disabled [with_] is a plain
   call, which is how the tracing overhead is measured. *)
let enabled = ref false

let push s =
  if !count = Array.length !spans then begin
    let grown = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 grown 0 !count;
    spans := grown
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let with_ ~unit name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let i =
      push
        {
          s_name = name;
          s_unit = unit;
          s_parent = parent;
          s_start = Unix.gettimeofday ();
          s_stop = nan;
        }
    in
    stack := i :: !stack;
    let finish () =
      !spans.(i).s_stop <- Unix.gettimeofday ();
      stack := List.tl !stack
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let dur s = s.s_stop -. s.s_start

(* The number of spans recorded so far: pass it as [~from] to look only
   at spans recorded after this point. *)
let mark () = !count

(* Forget every span recorded after [mark]. *)
let truncate mark =
  count := min !count mark;
  stack := []

(* Durations of every span named [name], in recording order. *)
let durations ?(from = 0) name =
  let acc = ref [] in
  for i = !count - 1 downto from do
    let s = !spans.(i) in
    if s.s_name = name then acc := dur s :: !acc
  done;
  !acc

let total ?from name = Util.sum (durations ?from name)
let mean_ms ?from name = 1000. *. Util.mean (durations ?from name)

(* Self time of every span, by index. *)
let self_times () =
  let self = Array.init !count (fun i -> dur !spans.(i)) in
  for i = 0 to !count - 1 do
    let p = !spans.(i).s_parent in
    if p >= 0 then self.(p) <- self.(p) -. dur !spans.(i)
  done;
  self

(* One JSON object per span, in start order. *)
let write path =
  let self = self_times () in
  let buf = Buffer.create (1 lsl 16) in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    Buffer.add_string buf
      (W.json_to_string
         (W.Obj
            [
              ("id", W.Int i);
              ("name", W.String s.s_name);
              ("unit", W.Int s.s_unit);
              ("parent", W.Int s.s_parent);
              ("start", Util.jfloat s.s_start);
              ("end", Util.jfloat s.s_stop);
              ("self", Util.jfloat self.(i));
            ]));
    Buffer.add_char buf '\n'
  done;
  Util.write_file path (Buffer.contents buf)
