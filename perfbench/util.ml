(* Small shared helpers: clocks, order statistics, process memory,
   output directory and JSON rendering. *)

module W = Drd_explore.Wire

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- order statistics ---- *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs
let sumi xs = List.fold_left ( + ) 0 xs
let ratio a b = if b = 0. then 0. else a /. b
let ratioi a b = ratio (float_of_int a) (float_of_int b)

(* ---- process memory ---- *)

(* High-water resident set size of a process, in MiB, from
   /proc/<pid>/status; [nan] where procfs is unavailable. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else go ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) go

(* ---- files ---- *)

(* Everything a run leaves behind (traces, counters, recorded logs,
   sockets) lives here, relative to the checkout root. *)
let out_dir = ".perfbench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

let out_path name = Filename.concat out_dir name

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* ---- JSON ---- *)

(* Non-finite floats have no JSON spelling; they only arise from empty
   samples, which the checks count as failures anyway. *)
let jfloat x = if Float.is_finite x then W.Float x else W.Null

(* Log to stderr, keeping stdout for the report. *)
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt
