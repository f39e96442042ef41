(* The link phase must be a pure function of the program, not of the
   [p_methods] hash table's internal layout: method ids, vtable rows,
   slot numbering and the call-site ids embedded in linked code have to
   come out identical whatever order the methods were inserted in
   (equivalently, whatever order [iter_mirs] would enumerate).  Plus the
   unlinkable-program diagnostics. *)

module H = Drd_harness
module Pipeline = H.Pipeline
module Config = H.Config
module Programs = H.Programs
module Ir = Drd_ir.Ir
module Link = Drd_ir.Link

let prog_of source = (Pipeline.compile Config.full ~source).Pipeline.prog

let benchmark name =
  match Programs.find name with
  | Some b -> b.Programs.b_source
  | None -> Alcotest.failf "no benchmark named %S" name

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* Everything observable about an image except [i_prog] (which holds the
   hash table itself). *)
type skeleton = {
  k_methods : (int * string * int * int * int * Link.lop array * int array) array;
  k_main : int;
  k_classes : string array;
  k_vtables : int array array;
  k_slot_names : string array;
  k_run_slot : int;
}

let skeleton (img : Link.image) =
  {
    k_methods =
      Array.map
        (fun (m : Link.lmethod) ->
          ( m.Link.m_id,
            m.Link.m_key,
            m.Link.m_nregs,
            m.Link.m_nparams,
            m.Link.m_entry,
            m.Link.m_code,
            m.Link.m_lines ))
        img.Link.i_methods;
    k_main = img.Link.i_main;
    k_classes = img.Link.i_classes;
    k_vtables = img.Link.i_vtables;
    k_slot_names = img.Link.i_slot_names;
    k_run_slot = img.Link.i_run_slot;
  }

(* Deterministic Fisher-Yates driven by a little xorshift stream, so a
   QCheck-supplied salt names one insertion order exactly. *)
let shuffle salt arr =
  let state = ref (salt lxor 0x9E3779B9) in
  let next bound =
    let s = !state in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    state := s;
    abs s mod bound
  in
  for i = Array.length arr - 1 downto 1 do
    let j = next (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let reinserted salt (prog : Ir.program) =
  let bindings =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) prog.Ir.p_methods []
    |> List.sort compare |> Array.of_list
  in
  shuffle salt bindings;
  let h = Hashtbl.create (Array.length bindings) in
  Array.iter (fun (k, v) -> Hashtbl.replace h k v) bindings;
  { prog with Ir.p_methods = h }

let stability_prop =
  let prog = prog_of (benchmark "tsp") in
  let baseline = skeleton (Link.link prog) in
  QCheck.Test.make ~count:50
    ~name:"linked image is stable under method-table insertion order"
    QCheck.small_int
    (fun salt ->
      let relinked = skeleton (Link.link (reinserted salt prog)) in
      relinked = baseline)

let test_method_ids_sorted () =
  (* Ids follow sorted-key order, so they are recoverable by name. *)
  let img = Link.link (prog_of (Programs.figure2 ())) in
  Array.iteri
    (fun i (m : Link.lmethod) ->
      Alcotest.(check int) (m.Link.m_key ^ " id") i m.Link.m_id;
      Alcotest.(check (option int))
        (m.Link.m_key ^ " lookup") (Some i)
        (Link.find_method_id img m.Link.m_key))
    img.Link.i_methods;
  Alcotest.(check (option int))
    "unknown key" None
    (Link.find_method_id img "No.such");
  let keys =
    Array.to_list (Array.map (fun m -> m.Link.m_key) img.Link.i_methods)
  in
  Alcotest.(check (list string)) "keys sorted" (List.sort compare keys) keys

let test_vtable_rows () =
  (* Every vtable entry either is -1 or points at a method of that slot's
     name whose key starts with some class name. *)
  let img = Link.link (prog_of (benchmark "elevator")) in
  Array.iteri
    (fun cid row ->
      Alcotest.(check int)
        (img.Link.i_classes.(cid) ^ " vtable width")
        (Array.length img.Link.i_slot_names)
        (Array.length row);
      Array.iteri
        (fun slot mid ->
          if mid >= 0 then begin
            let m = img.Link.i_methods.(mid) in
            let name = img.Link.i_slot_names.(slot) in
            let suffix = "." ^ name in
            let ok =
              String.length m.Link.m_key > String.length suffix
              && String.sub m.Link.m_key
                   (String.length m.Link.m_key - String.length suffix)
                   (String.length suffix)
                 = suffix
            in
            if not ok then
              Alcotest.failf "slot %S of %s resolves to %s" name
                img.Link.i_classes.(cid) m.Link.m_key
          end)
        row)
    img.Link.i_vtables

let test_missing_main () =
  let prog = prog_of (Programs.figure2 ()) in
  let broken = { prog with Ir.p_main = "Nope.main" } in
  match Link.link broken with
  | _ -> Alcotest.fail "linking without a main method must fail"
  | exception Link.Link_error msg ->
      if not (contains ~sub:"no main method" msg && contains ~sub:"Nope.main" msg)
      then Alcotest.failf "unhelpful Link_error: %S" msg

(* ---- the link-time type check ----

   Each case lowers a well-typed program, mutates one operand so that
   its register has the wrong category for the op, and expects a
   [Link_error] naming the method and the source line. *)

let typed_source =
  {|class Box { int v; }
class Main {
  static int twice(int x) {
    boolean big = x > 100;
    return x + x;
  }
  static boolean both(boolean a, boolean b) {
    return a && b;
  }
  static void main() {
    Box box = new Box();
    int[] arr = new int[3];
    int n = 2;
    boolean t = both(true, n > 1);
    if (t) { n = n + 1; }
    box.v = arr[1];
    n = twice(n);
    print("n", n);
  }
}
|}

let lowered () =
  Drd_ir.Lower.lower_program
    (Drd_lang.Typecheck.check (Drd_lang.Parser.parse_program typed_source))

let mir prog key =
  match Ir.find_mir prog key with
  | Some m -> m
  | None -> Alcotest.failf "no method %s" key

(* The first register of [m] whose static type is [ty]. *)
let reg_of_type (m : Ir.mir) ty =
  let rec go r =
    if r >= Array.length m.Ir.mir_reg_tys then
      Alcotest.failf "%s has no register of the wanted type" m.Ir.mir_key
    else if m.Ir.mir_reg_tys.(r) = ty then r
    else go (r + 1)
  in
  go 0

(* Rewrite the first instruction of [key] that [f] maps to [Some op];
   return its source line. *)
let mutate_instr prog key f =
  let m = mir prog key in
  let line = ref (-1) in
  Ir.iter_instrs m (fun _ i ->
      if !line < 0 then
        match f m i.Ir.i_op with
        | Some op ->
            i.Ir.i_op <- op;
            line := i.Ir.i_line
        | None -> ());
  if !line < 0 then Alcotest.failf "%s: no instruction to mutate" key;
  !line

(* Rewrite the first terminator of [key] that [f] maps to [Some term].
   The cases name the line the linker must report for it by hand: the
   line of the statement the terminator ends, in [typed_source]. *)
let mutate_term prog key f =
  let m = mir prog key in
  let done_ = ref false in
  Ir.iter_blocks m (fun b ->
      if not !done_ then
        match f m b.Ir.b_term with
        | Some t ->
            b.Ir.b_term <- t;
            done_ := true
        | None -> ());
  if not !done_ then Alcotest.failf "%s: no terminator to mutate" key

let expect_link_error ~what ~key ~line ?(sub = "register type mismatch") prog =
  match Link.link prog with
  | _ -> Alcotest.failf "%s: linked despite the mistyped operand" what
  | exception Link.Link_error msg ->
      let at = Printf.sprintf "%s:%d" key line in
      if not (contains ~sub:at msg && contains ~sub msg) then
        Alcotest.failf "%s: Link_error %S does not name %s and %S" what msg at
          sub

let test_mistyped_operands () =
  let main = "Main.main" in
  let int_reg m = reg_of_type m Drd_lang.Ast.Tint
  and bool_reg m = reg_of_type m Drd_lang.Ast.Tbool in
  (* An int register as an [If] condition: the error names the line of
     [if (t)] itself, not of the call that computed [t] above it. *)
  let prog = lowered () in
  mutate_term prog main (fun m -> function
    | Ir.If (_, t, f) -> Some (Ir.If (int_reg m, t, f))
    | _ -> None);
  expect_link_error ~what:"int condition" ~key:main ~line:15 ~sub:"(if)" prog;
  (* A boolean in arithmetic. *)
  let prog = lowered () in
  let line =
    mutate_instr prog main (fun m -> function
      | Ir.Binop (Drd_lang.Ast.Add, d, _, r) ->
          Some (Ir.Binop (Drd_lang.Ast.Add, d, bool_reg m, r))
      | _ -> None)
  in
  expect_link_error ~what:"boolean operand of +" ~key:main ~line prog;
  (* An int as a field receiver. *)
  let prog = lowered () in
  let line =
    mutate_instr prog main (fun m -> function
      | Ir.PutField (_, fm, s) -> Some (Ir.PutField (int_reg m, fm, s))
      | _ -> None)
  in
  expect_link_error ~what:"int receiver" ~key:main ~line ~sub:"(putfield)"
    prog;
  (* An int as an array base. *)
  let prog = lowered () in
  let line =
    mutate_instr prog main (fun m -> function
      | Ir.ALoad (d, _, i) -> Some (Ir.ALoad (d, int_reg m, i))
      | _ -> None)
  in
  expect_link_error ~what:"int array base" ~key:main ~line ~sub:"(aload)" prog;
  (* A call argument of the wrong category. *)
  let prog = lowered () in
  let line =
    mutate_instr prog main (fun m -> function
      | Ir.Call (dst, (Ir.Static (_, "twice") as t), [ _ ], site) ->
          Some (Ir.Call (dst, t, [ bool_reg m ], site))
      | _ -> None)
  in
  expect_link_error ~what:"boolean argument" ~key:main ~line ~sub:"(argument)"
    prog;
  (* A call result of the wrong category. *)
  let prog = lowered () in
  let line =
    mutate_instr prog main (fun m -> function
      | Ir.Call (Some _, (Ir.Static (_, "twice") as t), args, site) ->
          Some (Ir.Call (Some (bool_reg m), t, args, site))
      | _ -> None)
  in
  expect_link_error ~what:"boolean call result" ~key:main ~line
    ~sub:"(call result)" prog;
  (* A [Ret] of the wrong category. *)
  let prog = lowered () in
  let key = "Main.twice" in
  mutate_term prog key (fun m -> function
    | Ir.Ret (Some _) -> Some (Ir.Ret (Some (bool_reg m)))
    | _ -> None);
  expect_link_error ~what:"boolean return" ~key ~line:5 ~sub:"(return)" prog;
  (* The short-circuit temporary retyped as int: its first write is the
     [Move] of the right operand. *)
  let prog = lowered () in
  let m = mir prog "Main.both" in
  let line = ref (-1) in
  Ir.iter_instrs m (fun _ i ->
      match i.Ir.i_op with
      | Ir.Move (d, _) when !line < 0 && d >= m.Ir.mir_nparams ->
          m.Ir.mir_reg_tys.(d) <- Drd_lang.Ast.Tint;
          line := i.Ir.i_line
      | _ -> ());
  expect_link_error ~what:"int short-circuit temporary" ~key:"Main.both"
    ~line:!line ~sub:"register type mismatch (move)" prog;
  (* The unmutated program links. *)
  ignore (Link.link (lowered ()) : Link.image)

(* Unrelated classes share a vtable slot by name alone; each call is
   checked against the method its static receiver class resolves to,
   so differing signatures in one slot are fine. *)
let test_shared_slot_signatures () =
  let source =
    {|class A { int get() { return 0; } }
class B { boolean get() { return false; } }
class Main {
  static void main() {
    A a = new A();
    B b = new B();
    print("a", a.get());
    print("b", b.get());
  }
}
|}
  in
  let compiled = Pipeline.compile Config.full ~source in
  List.iter
    (fun engine ->
      let r = Pipeline.run ~detect:false ~engine compiled in
      Alcotest.(check (list (pair string string)))
        "prints"
        [ ("a", "0"); ("b", "false") ]
        (List.map
           (fun (tag, v) ->
             (tag, Fmt.str "%a" Fmt.(option Drd_vm.Value.pp) v))
           r.Pipeline.prints))
    [ `Ref; `Linked; `Spec ]

let generated_links_prop =
  QCheck.Test.make ~count:20 ~name:"every generated arena program links"
    QCheck.small_int
    (fun seed ->
      List.for_all
        (fun sp ->
          let source = Drd_arena.Gen.emit sp in
          match Pipeline.compile Config.full ~source with
          | _ -> true
          | exception Link.Link_error msg ->
              QCheck.Test.fail_reportf "seed %d program %d: %s\n%s" seed
                sp.Drd_arena.Gen.sp_index msg source)
        (Drd_arena.Gen.generate ~seed ~count:5 ()))

let suite =
  [
    QCheck_alcotest.to_alcotest stability_prop;
    Alcotest.test_case "method ids follow sorted keys" `Quick
      test_method_ids_sorted;
    Alcotest.test_case "vtable rows resolve to same-name methods" `Quick
      test_vtable_rows;
    Alcotest.test_case "missing p_main is rejected with a clear error" `Quick
      test_missing_main;
    Alcotest.test_case "mistyped operands are rejected at link" `Quick
      test_mistyped_operands;
    Alcotest.test_case "shared vtable slot with differing signatures" `Quick
      test_shared_slot_signatures;
    QCheck_alcotest.to_alcotest generated_links_prop;
  ]
