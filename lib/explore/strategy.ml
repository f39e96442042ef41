module Interp = Drd_vm.Interp
module Config = Drd_harness.Config

type t =
  | Sweep
  | Jitter
  | Pct of int

let name = function
  | Sweep -> "sweep"
  | Jitter -> "jitter"
  | Pct d -> Printf.sprintf "pct(d=%d)" d

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "sweep" -> Ok Sweep
  | "jitter" -> Ok Jitter
  | "pct" -> Ok (Pct 3)
  | s -> Error (Printf.sprintf "unknown strategy %s (try sweep|jitter|pct)" s)

(* A SplitMix64-style finalizer over (base seed, run index): every run
   of a campaign gets an independent-looking but fully deterministic
   seed, so the same campaign spec always executes the same runs no
   matter how they are distributed over workers. *)
let mix seed index =
  let z = ref (((seed * 0x9E3779B9) lxor (index * 0xBF58476D)) + 0x94D049BB) in
  (* 62-bit truncations of the SplitMix64 constants (OCaml ints are 63
     bits). *)
  z := (!z lxor (!z lsr 30)) * 0x3F58476D1CE4E5B9;
  z := (!z lxor (!z lsr 27)) * 0x14D049BB133111EB;
  (!z lxor (!z lsr 31)) land 0x3FFFFFFF

type run_spec = {
  sp_index : int;
  sp_seed : int;
  sp_quantum : int;
  sp_policy : Interp.policy;
}

let spec strategy ~(base : Config.t) ~pct_horizon index =
  match strategy with
  | Sweep ->
      {
        sp_index = index;
        sp_seed = base.Config.seed + index;
        sp_quantum = base.Config.quantum;
        sp_policy = Interp.Random_walk;
      }
  | Jitter ->
      (* Random-walk with the slice bound itself randomized: schedules
         range from near-sequential (huge quanta) to maximally noisy
         (quantum 1). *)
      let seed = mix base.Config.seed (2 * index) in
      let q = 1 + (mix base.Config.seed ((2 * index) + 1) mod (4 * max base.Config.quantum 1)) in
      {
        sp_index = index;
        sp_seed = seed;
        sp_quantum = q;
        sp_policy = Interp.Random_walk;
      }
  | Pct depth ->
      {
        sp_index = index;
        sp_seed = mix base.Config.seed index;
        sp_quantum = base.Config.quantum;
        sp_policy = Interp.Pct { depth; horizon = pct_horizon };
      }

(* One batched claim's worth of run specs: indices [first, first+stride,
   ..., first+(count-1)*stride].  Pool workers use this to materialize a
   whole chunk in one call (the stride is the shard modulus). *)
let specs strategy ~base ~pct_horizon ~first ~stride ~count =
  List.init count (fun k -> spec strategy ~base ~pct_horizon (first + (k * stride)))

let describe_policy = function
  | Interp.Random_walk -> "random-walk"
  | Interp.Pct { depth; horizon } ->
      Printf.sprintf "pct depth=%d horizon=%d" depth horizon

let describe sp =
  Printf.sprintf "seed %d, quantum %d, %s" sp.sp_seed sp.sp_quantum
    (describe_policy sp.sp_policy)

(* The `racedet run` flags that replay this spec as a single run. *)
let repro_flags sp =
  match sp.sp_policy with
  | Interp.Random_walk ->
      Printf.sprintf "--seed %d --quantum %d" sp.sp_seed sp.sp_quantum
  | Interp.Pct { depth; horizon } ->
      Printf.sprintf "--seed %d --quantum %d --pct %d --pct-horizon %d"
        sp.sp_seed sp.sp_quantum depth horizon
