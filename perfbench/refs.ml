(* Checked-in references.  perfbench/refs/explore.txt holds, per
   campaign seed, the MD5 of `racedet explore --no-timing` output for
   the two explore workloads' campaigns (see perfbench/README.md for
   the commands that made it). *)

let explore_file = "perfbench/refs/explore.txt"

let columns = [ ("explore-tsp", 1); ("explore-sor2-hb", 2) ]

let explore ~workload ~seed =
  match (List.assoc_opt workload columns, Util.read_file explore_file) with
  | exception Sys_error _ -> None
  | None, _ -> None
  | Some col, text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | s :: _ as fields when int_of_string_opt s = Some seed ->
                 List.nth_opt fields col
             | _ -> None)
