(* The run's bookkeeping: operations attempted and failed, output-check
   problems, measured metrics and exact counters. *)

let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

let problem fmt =
  Printf.ksprintf
    (fun s ->
      Util.log "CHECK FAILED: %s" s;
      problems := s :: !problems)
    fmt

(* One operation: [ok] false counts it as failed (the caller has
   already recorded why through [problem]). *)
let op ok =
  incr attempted;
  if not ok then incr failed

let ops ~attempted:n ~failed:k =
  attempted := !attempted + n;
  failed := !failed + k

(* ---- metrics, by name ---- *)

let metrics : (string * float) list ref = ref []
let set name v = metrics := (name, v) :: List.remove_assoc name !metrics
let get name = List.assoc_opt name !metrics

(* ---- exact counters: deterministic for a given workload and seed ---- *)

let counters : (string * int) list ref = ref []
let counter name n = counters := (name, n) :: List.remove_assoc name !counters

(* Compare two computations of the same counters (two passes over the
   same inputs); any difference is a determinism failure. *)
let same_counters what a b =
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k b with
      | Some v' when v' = v -> ()
      | Some v' -> problem "%s: counter %s differs between passes (%d vs %d)" what k v v'
      | None -> problem "%s: counter %s missing from second pass" what k)
    a
