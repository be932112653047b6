(* City meetup: the paper's real-dataset experiment setting (TABLE II).

   Generates the simulated Meetup dataset for the three cities and compares
   the approximation algorithms and random baselines per city, printing the
   same metrics as the paper's Fig 4 (last column): MaxSum, running time
   and memory.

   MinCostFlow-GEACC is only run on the smaller cities; on Vancouver
   (225 x 2012) it takes minutes, which is precisely the scalability gap
   the paper reports.

   Run with: dune exec examples/city_meetup.exe *)

open Geacc_core
module Meetup = Geacc_datagen.Meetup
module Harness = Geacc_bench.Harness
module Table = Geacc_util.Table

let algorithms_for (city : Meetup.city) =
  let base = [ Solver.Greedy; Solver.Random_v; Solver.Random_u ] in
  if city.Meetup.n_events * city.Meetup.n_users <= 60_000 then
    Solver.Greedy :: Solver.Min_cost_flow
    :: [ Solver.Random_v; Solver.Random_u ]
  else base

let () =
  List.iter
    (fun (city : Meetup.city) ->
      let instance = Meetup.generate ~seed:2015 ~conflict_ratio:0.25 city in
      let table =
        Table.create
          ~title:
            (Format.asprintf "%s: %a" city.Meetup.name Instance.pp_summary
               instance)
          ~headers:[ "algorithm"; "MaxSum"; "pairs"; "time (ms)"; "mem (KB)" ]
      in
      List.iter
        (fun algorithm ->
          let m = Harness.measure algorithm instance in
          Table.add_row table
            [
              Solver.name algorithm;
              Printf.sprintf "%.2f" m.Harness.maxsum;
              string_of_int m.Harness.matched_pairs;
              Printf.sprintf "%.1f" (m.Harness.wall_s *. 1000.);
              Printf.sprintf "%.0f" (float_of_int m.Harness.live_bytes /. 1024.);
            ])
        (algorithms_for city);
      Table.print table)
    Meetup.cities
