(* Int_tbl against the polymorphic Hashtbl as a model: random operation
   sequences over a small key space (so probes collide, clusters form
   and removals shift entries back) that includes the key the table
   reserves internally for free slots. *)

open Drd_core

type op = Replace of int * int | Remove of int | Clear

let gen_key =
  QCheck.Gen.(
    frequency
      [
        (8, int_range (-40) 40);
        (1, oneofl [ min_int; max_int; min_int + 1; 1 lsl 31; -(1 lsl 40) ]);
        (2, map (fun i -> i * 1024) (int_range 0 40));
      ])

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 600)
      (frequency
         [
           (6, map2 (fun k v -> Replace (k, v)) gen_key small_nat);
           (4, map (fun k -> Remove k) gen_key);
           (1, return Clear);
         ]))

let show_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"

let bindings_sorted fold t =
  List.sort compare (fold (fun k v acc -> (k, v) :: acc) t [])

let prop_matches_hashtbl =
  QCheck.Test.make ~count:300 ~name:"Int_tbl agrees with Hashtbl"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       gen_ops)
    (fun ops ->
      let t = Int_tbl.create 2 (-1) and h = Hashtbl.create 8 in
      let probes = [ min_int; max_int; 0; 1; -1; 1024; 40; -40; 1 lsl 31 ] in
      List.for_all
        (fun op ->
          (match op with
          | Replace (k, v) ->
              Int_tbl.replace t k v;
              Hashtbl.replace h k v
          | Remove k ->
              Int_tbl.remove t k;
              Hashtbl.remove h k
          | Clear ->
              Int_tbl.clear t;
              Hashtbl.reset h);
          let key_of = function Replace (k, _) | Remove k -> [ k ] | Clear -> [] in
          Int_tbl.length t = Hashtbl.length h
          && List.for_all
               (fun k ->
                 Int_tbl.mem t k = Hashtbl.mem h k
                 &&
                 match (Int_tbl.find t k, Hashtbl.find_opt h k) with
                 | v, Some v' -> v = v'
                 | _, None -> false
                 | exception Not_found -> not (Hashtbl.mem h k))
               (key_of op @ probes))
        ops
      && bindings_sorted Int_tbl.fold t = bindings_sorted Hashtbl.fold h
      &&
      let seen = ref [] in
      Int_tbl.iter (fun k v -> seen := (k, v) :: !seen) t;
      List.sort compare !seen = bindings_sorted Hashtbl.fold h)

let test_grows_and_clears () =
  let t = Int_tbl.create 0 "" in
  for i = 0 to 9999 do
    Int_tbl.replace t (i * 7) (string_of_int i)
  done;
  Alcotest.(check int) "all bound" 10_000 (Int_tbl.length t);
  Alcotest.(check string) "late key" "9999" (Int_tbl.find t (9999 * 7));
  for i = 0 to 9999 do
    if i mod 2 = 0 then Int_tbl.remove t (i * 7)
  done;
  Alcotest.(check int) "half removed" 5_000 (Int_tbl.length t);
  Alcotest.(check bool) "odd key kept" true (Int_tbl.mem t 7);
  Alcotest.(check bool) "even key gone" false (Int_tbl.mem t 14);
  Int_tbl.clear t;
  Alcotest.(check int) "cleared" 0 (Int_tbl.length t);
  Alcotest.(check bool) "nothing left" false (Int_tbl.mem t 7);
  Int_tbl.replace t 7 "again";
  Alcotest.(check string) "usable after clear" "again" (Int_tbl.find t 7)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_matches_hashtbl;
    Alcotest.test_case "grows, removes and clears" `Quick test_grows_and_clears;
  ]
