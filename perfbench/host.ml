(* Host facts stamped into every result: what was measured, with what
   toolchain, on how much real parallelism.

   The parallelism probe times a fixed spin loop on one domain, then the
   same loop on two domains at once and in two processes at once.  A
   speedup near 2 means the host runs two threads in parallel; near 1
   means multi-domain numbers on this host measure overhead, not
   scaling. *)

module W = Util.W

let spin n =
  let x = ref 0 in
  for i = 1 to n do
    x := !x + (i land 7)
  done;
  Sys.opaque_identity !x

let probe_iters = 40_000_000

let one_domain () = snd (Util.time (fun () -> ignore (spin probe_iters)))

let two_domains () =
  snd
    (Util.time (fun () ->
         let d = Domain.spawn (fun () -> spin probe_iters) in
         ignore (spin probe_iters);
         ignore (Domain.join d)))

let two_processes () =
  snd
    (Util.time (fun () ->
         let child () =
           match Unix.fork () with
           | 0 ->
               ignore (spin probe_iters);
               Unix._exit 0
           | pid -> pid
         in
         let a = child () in
         let b = child () in
         ignore (Unix.waitpid [] a);
         ignore (Unix.waitpid [] b)))

let command_output cmd =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> None
  | ic ->
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> line
      | _ -> None)

(* The checkout the benchmark runs in need not be a git repository, so
   the sources are also identified by a digest of lib/, bin/ and
   perfbench/. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
        Array.to_list entries |> List.sort compare
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p
               else if
                 Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
                 || Filename.check_suffix e ".mll" || e = "dune"
               then [ p ]
               else [])
  in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun p ->
      Buffer.add_string buf p;
      Buffer.add_string buf (Digest.to_hex (Digest.file p)))
    (files "lib" @ files "bin" @ files "perfbench");
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* [nproc] counts the CPUs this process may run on (its affinity mask),
   which is what bounds the workloads' parallelism. *)
let facts () =
  let nproc = Option.bind (command_output "nproc") int_of_string_opt in
  let commit =
    if Sys.file_exists ".git" then command_output "git rev-parse HEAD 2>/dev/null" else None
  in
  let procs = two_processes () in
  let t1 = one_domain () in
  let doms = two_domains () in
  W.Obj
    [
      ("commit", match commit with Some c -> W.String c | None -> W.Null);
      ("source_digest", W.String (source_digest ()));
      ("ocaml_version", W.String Sys.ocaml_version);
      ("nproc", match nproc with Some n -> W.Int n | None -> W.Null);
      ("recommended_domain_count", W.Int (Domain.recommended_domain_count ()));
      ( "parallelism_probe",
        W.Obj
          [
            ("spin_iters", W.Int probe_iters);
            ("one_domain_s", Util.jfloat t1);
            ("two_domains_s", Util.jfloat doms);
            ("two_processes_s", Util.jfloat procs);
            ("domain_speedup", Util.jfloat (2. *. t1 /. doms));
            ("process_speedup", Util.jfloat (2. *. t1 /. procs));
          ] );
    ]
