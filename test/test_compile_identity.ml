(* Compile identity: the compile path's output, pinned byte for byte.

   For every (program, configuration) pair below, a canonical rendering
   of everything [Pipeline.compile] produces that later stages read is
   hashed and compared with the digest recorded in
   [compile_identity.txt]: the linked image (method bodies with their
   source lines, vtables, the spec table), the site table, the trace
   counts, [Race_set.stats], and every statement of the static race set
   with its [peers_of] list in order.  Table iteration orders inside the
   passes reach several of these (peer lists are capped at 16, spec
   cells are numbered in component order), so a pass rewrite that
   changes an order fails here even when the program still runs.

   Inputs: the six benchmarks under every [Config.all] entry and each
   baseline's [Registry.apply] row, and
   [Gen.generate ~seed:7 ~count:300] under [full] and [no_dominators].
   A digest file line is [<program> <config> <md5 hex>]. *)

module H = Drd_harness
module Pipeline = H.Pipeline
module Config = H.Config
module Registry = H.Registry
module Programs = H.Programs
module Ir = Drd_ir.Ir
module Link = Drd_ir.Link
module Site_table = Drd_ir.Site_table
module Pretty = Drd_ir.Pretty
module Race_set = Drd_static.Race_set
module Gen = Drd_arena.Gen

let digest_file = "compile_identity.txt"

let kind = function Drd_core.Event.Read -> "R" | Drd_core.Event.Write -> "W"

let reg = Printf.sprintf "r%d"

let opt_reg = function Some r -> reg r | None -> "-"

let fm (f : Ir.field_meta) =
  Printf.sprintf "%s.%s#%d" f.Ir.fm_class f.Ir.fm_name f.Ir.fm_index

let sm (s : Ir.static_meta) =
  Printf.sprintf "%s.%s#%d" s.Ir.sm_class s.Ir.sm_name s.Ir.sm_slot

let const c = Fmt.str "%a" Pretty.pp_const c

let lop (op : Link.lop) =
  let p = Printf.sprintf in
  match op with
  | Link.Lconst (d, c) -> p "const %s %s" (reg d) (const c)
  | Link.Lmove (d, s) -> p "move %s %s" (reg d) (reg s)
  | Link.Lbinop (o, d, l, r) ->
      p "binop %s %s %s %s" (Fmt.str "%a" Pretty.pp_binop o) (reg d) (reg l)
        (reg r)
  | Link.Lunop (o, d, s) ->
      p "unop %s %s %s"
        (match o with Drd_lang.Ast.Neg -> "neg" | Drd_lang.Ast.Not -> "not")
        (reg d) (reg s)
  | Link.Lgetfield (d, o, f) -> p "getfield %s %s %s" (reg d) (reg o) (fm f)
  | Link.Lputfield (o, f, s) -> p "putfield %s %s %s" (reg o) (fm f) (reg s)
  | Link.Lgetstatic (d, s) -> p "getstatic %s %s" (reg d) (sm s)
  | Link.Lputstatic (s, r) -> p "putstatic %s %s" (sm s) (reg r)
  | Link.Laload (d, a, i) -> p "aload %s %s %s" (reg d) (reg a) (reg i)
  | Link.Lastore (a, i, s) -> p "astore %s %s %s" (reg a) (reg i) (reg s)
  | Link.Lnewobj (d, c) -> p "newobj %s %d" (reg d) c
  | Link.Lnewarr (d, ty, dims) ->
      p "newarr %s %s [%s]" (reg d)
        (Fmt.str "%a" Drd_lang.Ast.pp_ty ty)
        (String.concat "," (List.map reg dims))
  | Link.Larrlen (d, a) -> p "arrlen %s %s" (reg d) (reg a)
  | Link.Lclassobj (d, c) -> p "classobj %s %d" (reg d) c
  | Link.Lnullcheck r -> p "nullcheck %s" (reg r)
  | Link.Lboundscheck (a, i) -> p "boundscheck %s %s" (reg a) (reg i)
  | Link.Lcall (d, target, args, site) ->
      p "call %s %s (%s) site %d" (opt_reg d)
        (match target with
        | Link.Lc_method id -> p "method %d" id
        | Link.Lc_virtual (slot, name) -> p "virtual %d %s" slot name)
        (String.concat "," (Array.to_list (Array.map reg args)))
        site
  | Link.Lmonitorenter r -> p "monitorenter %s" (reg r)
  | Link.Lmonitorexit r -> p "monitorexit %s" (reg r)
  | Link.Lthreadstart r -> p "threadstart %s" (reg r)
  | Link.Lthreadjoin r -> p "threadjoin %s" (reg r)
  | Link.Lwait r -> p "wait %s" (reg r)
  | Link.Lnotify (r, all) -> p "notify %s %b" (reg r) all
  | Link.Lyield -> "yield"
  | Link.Lprint (tag, r) -> p "print %S %s" tag (opt_reg r)
  | Link.Ltrace_field (o, idx, k, site) ->
      p "trace_field %s %d %s site %d" (reg o) idx (kind k) site
  | Link.Ltrace_static (slot, k, site) ->
      p "trace_static %d %s site %d" slot (kind k) site
  | Link.Ltrace_array (a, k, site) ->
      p "trace_array %s %s site %d" (reg a) (kind k) site
  | Link.Ltrace_field_spec (o, idx, k, site, cell) ->
      p "trace_field_spec %s %d %s site %d cell %d" (reg o) idx (kind k) site
        cell
  | Link.Ltrace_static_spec (slot, k, site, cell) ->
      p "trace_static_spec %d %s site %d cell %d" slot (kind k) site cell
  | Link.Ltrace_array_spec (a, k, site, cell) ->
      p "trace_array_spec %s %s site %d cell %d" (reg a) (kind k) site cell
  | Link.Lgoto pc -> p "goto %d" pc
  | Link.Lif (c, t, f) -> p "if %s %d %d" (reg c) t f
  | Link.Lret r -> p "ret %s" (opt_reg r)
  | Link.Ltrap msg -> p "trap %S" msg

let spec_class = function
  | Link.Sfixed -> "fixed"
  | Link.Sowned -> "owned"
  | Link.Sro -> "ro"

(* The race set is enumerated over a fresh lowering of the same source
   (same peeling), so statements the optimizer later deletes from the
   compiled IR are still listed. *)
let render_race_set buf (config : Config.t) ~source rs =
  let tprog = Drd_lang.Typecheck.check (Drd_lang.Parser.parse_program source) in
  let tprog =
    if config.Config.loop_peel then Drd_instr.Peel.peel_program tprog else tprog
  in
  let fresh = Drd_ir.Lower.lower_program tprog in
  let st = Race_set.stats rs in
  Printf.bprintf buf "stats %d %d %d %d %d\n" st.Race_set.reachable_methods
    st.Race_set.access_statements st.Race_set.in_race_set
    st.Race_set.thread_specific_excluded st.Race_set.abstract_objects;
  Ir.iter_mirs fresh (fun m ->
      Ir.iter_instrs m (fun _ i ->
          if Race_set.may_race rs m i then begin
            let meth = Ir.mir_key m and iid = i.Ir.i_id in
            Printf.bprintf buf "race %s %d:" meth iid;
            List.iter
              (fun (pm, piid) -> Printf.bprintf buf " %s/%d" pm piid)
              (Race_set.peers_of rs ~meth ~iid);
            Buffer.add_char buf '\n'
          end))

let render (config : Config.t) ~source =
  let c = Pipeline.compile config ~source in
  let buf = Buffer.create 4096 in
  let img = c.Pipeline.image in
  Printf.bprintf buf "traces %d %d\n" c.Pipeline.traces_inserted
    c.Pipeline.traces_eliminated;
  Array.iter
    (fun (m : Link.lmethod) ->
      Printf.bprintf buf "method %d %s regs %d params %d entry %d\n"
        m.Link.m_id m.Link.m_key m.Link.m_nregs m.Link.m_nparams m.Link.m_entry;
      Array.iteri
        (fun pc op ->
          Printf.bprintf buf "  %d @%d %s\n" pc m.Link.m_lines.(pc) (lop op))
        m.Link.m_code)
    img.Link.i_methods;
  Printf.bprintf buf "main %d run_slot %d\n" img.Link.i_main img.Link.i_run_slot;
  Array.iteri
    (fun cid name ->
      Printf.bprintf buf "class %d %s vtable %s\n" cid name
        (String.concat ","
           (Array.to_list (Array.map string_of_int img.Link.i_vtables.(cid)))))
    img.Link.i_classes;
  Array.iteri (Printf.bprintf buf "slot %d %s\n") img.Link.i_slot_names;
  (match img.Link.i_spec with
  | None -> Buffer.add_string buf "spec none\n"
  | Some sp ->
      Printf.bprintf buf "spec %d cells\n" sp.Link.sp_ncells;
      Array.iteri
        (fun site cell -> if cell >= 0 then Printf.bprintf buf "  site %d cell %d\n" site cell)
        sp.Link.sp_cell_of_site;
      Array.iteri
        (fun cell cls ->
          Printf.bprintf buf "  cell %d %s %b\n" cell (spec_class cls)
            sp.Link.sp_cell_managed.(cell))
        sp.Link.sp_cell_class);
  Site_table.iter c.Pipeline.prog.Ir.p_sites (fun id (s : Site_table.info) ->
      Printf.bprintf buf "site %d %s:%d %s iid %d\n" id s.Site_table.s_method
        s.Site_table.s_line s.Site_table.s_desc s.Site_table.s_iid);
  (match c.Pipeline.race_set with
  | Some rs -> render_race_set buf config ~source rs
  | None -> Buffer.add_string buf "race_set none\n");
  Buffer.contents buf

(* (program name, config name, source, config), in digest-file order. *)
let cases () =
  let bench =
    List.concat_map
      (fun (b : Programs.benchmark) ->
        List.map
          (fun (cfg : Config.t) ->
            (b.Programs.b_name, cfg.Config.name, b.Programs.b_source, cfg))
          (Config.all
          @ List.map
              (fun e -> Registry.apply e Config.full)
              Registry.[ eraser; objrace; vclock ]))
      Programs.benchmarks
  in
  let gen =
    Gen.generate ~seed:7 ~count:300 ()
    |> List.concat_map (fun sp ->
           let name = Printf.sprintf "gen7-%03d" sp.Gen.sp_index in
           let source = Gen.emit sp in
           List.map
             (fun (cfg : Config.t) -> (name, cfg.Config.name, source, cfg))
             [ Config.full; Config.no_dominators ])
  in
  bench @ gen

let digests () =
  List.map
    (fun (prog, cfg_name, source, cfg) ->
      (prog, cfg_name, Digest.to_hex (Digest.string (render cfg ~source))))
    (cases ())

let recorded () =
  let ic = open_in_bin digest_file in
  let rec go acc =
    match input_line ic with
    | line -> (
        match String.split_on_char ' ' line with
        | [ prog; cfg; md5 ] -> go (((prog, cfg), md5) :: acc)
        | _ -> Alcotest.failf "%s: malformed line %S" digest_file line)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_identity () =
  let want = recorded () in
  let got = digests () in
  Alcotest.(check int) "case count" (List.length want) (List.length got);
  let bad =
    List.filter_map
      (fun (prog, cfg, md5) ->
        match List.assoc_opt (prog, cfg) want with
        | Some m when m = md5 -> None
        | Some _ -> Some (prog ^ "/" ^ cfg)
        | None -> Some (prog ^ "/" ^ cfg ^ " (not recorded)"))
      got
  in
  if bad <> [] then begin
    (* A change that means to alter compile output replaces the digest
       file with this one, and says why. *)
    let oc = open_out_bin "compile_identity.actual" in
    List.iter (fun (p, c, m) -> Printf.fprintf oc "%s %s %s\n" p c m) got;
    close_out oc;
    Alcotest.failf
      "compile output changed for %d of %d cases (current digests in \
       compile_identity.actual): %s"
      (List.length bad) (List.length got)
      (String.concat ", " (List.filteri (fun i _ -> i < 12) bad))
  end

let suite =
  [
    Alcotest.test_case "compile output matches the recorded digests" `Quick
      test_identity;
  ]
