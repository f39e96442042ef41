(* The VM and language tests' way into the production pipeline.
   [compile] stops after lowering, for the IR and static-analysis tests.
   The runs go through [Pipeline.compile] and [Pipeline.run] on
   [config]: Full with every compile-time filter off — no static race
   set, weaker-than elimination, peeling or scalar optimization unless a
   test asks for one — so every access a program makes reaches the
   detector. *)

module Pipeline = Drd_harness.Pipeline
module Config = Drd_harness.Config

let compile ?(peel = false) source =
  let tprog = Pipeline.frontend ~source in
  Drd_ir.Lower.lower_program
    (if peel then Drd_instr.Peel.peel_program tprog else tprog)

let config ?(seed = 42) ?(quantum = 20) ?(peel = false) ?(weaker = false)
    ?(static = false) () =
  {
    Config.full with
    Config.static_analysis = static;
    weaker_elim = weaker;
    loop_peel = peel;
    ir_optimize = false;
    seed;
    quantum;
  }

let run ?seed ?quantum ?peel ?weaker ?static source =
  let config = config ?seed ?quantum ?peel ?weaker ?static () in
  snd (Pipeline.run_source config source)

let ints prints =
  List.map
    (fun (tag, v) ->
      (tag, match v with Some (Drd_vm.Value.Vint n) -> n | _ -> min_int))
    prints
