(* `suite.exe --compare BASE NEW`: the paired-run rule of the
   choosing-metrics guide (§8), applied to two sets of runs.

   BASE and NEW each hold the standard output of several runs (meta line
   plus result line per workload, as the suite prints them). The i-th run
   of a workload in BASE pairs with the i-th in NEW. For every workload
   and end-to-end metric the verdict is:
   - improved: NEW wins at least 9/10 of the pairs and its median beats
     BASE's by more than BASE's interquartile spread;
   - regressed: NEW's median is worse than BASE's by more than the
     metric's bound in BENCHMARK.json;
   - unresolved: otherwise, when either side's interquartile spread is
     wider than the bound — unless every NEW run beats every BASE run;
   - unchanged: otherwise.
   Each workload also gets a failure row (see {!failure_row}). *)

type bound = { def : Metric.def; bound : float }

let load_bounds path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.parse text with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok j ->
      Ok
        (List.filter_map
           (fun m ->
             match
               ( Json.to_str (Json.member "name" m),
                 Json.to_str (Json.member "unit" m),
                 Json.to_str (Json.member "better" m),
                 Json.to_num (Json.member "bound" m) )
             with
             | Some name, Some unit, Some better, Some bound ->
                 let better = if better = "higher" then Metric.Higher else Metric.Lower in
                 Some { def = { Metric.name; unit; better }; bound }
             | _ -> None)
           (Json.to_list (Json.member "end_to_end" j)))

(* One run of one workload, as its result line reports it. A result line
   without ["correct": true] counts as incorrect. *)
type run = { metrics : Json.t; correct : bool; attempted : int; failed : int }

(* Runs per workload, in file order: each result line belongs to the
   workload named by the meta line before it. *)
let load_runs path =
  let lines = In_channel.with_open_bin path In_channel.input_lines in
  let runs = Hashtbl.create 8 and order = ref [] and current = ref None in
  List.iter
    (fun line ->
      match Json.parse line with
      | Error _ -> ()
      | Ok j -> (
          match (Json.member "meta" j, Json.member "metrics" j, !current) with
          | Some meta, _, _ -> current := Json.to_str (Json.member "workload" meta)
          | None, Some metrics, Some w ->
              if not (Hashtbl.mem runs w) then order := w :: !order;
              let count k =
                Option.fold ~none:0 ~some:int_of_float (Json.to_num (Json.member k j))
              in
              let run =
                {
                  metrics;
                  correct = Json.to_bool (Json.member "correct" j) = Some true;
                  attempted = count "attempted";
                  failed = count "failed";
                }
              in
              let prev = Option.value (Hashtbl.find_opt runs w) ~default:[] in
              Hashtbl.replace runs w (run :: prev)
          | _ -> ()))
    lines;
  List.map (fun w -> (w, List.rev (Hashtbl.find runs w))) (List.rev !order)

let value name metrics =
  Option.bind (Json.member name metrics) (fun m -> Json.to_num (Json.member "value" m))

type row = {
  workload : string;
  metric : string;
  base : string;
  next : string;
  won : string;
  verdict : string;
}

(* How much better [x] is than [y], signed, for this metric's direction. *)
let gain (def : Metric.def) x y =
  match def.Metric.better with Metric.Lower -> y -. x | Metric.Higher -> x -. y

let judge b base next =
  let pairs = min (Array.length base) (Array.length next) in
  let won = ref 0 in
  for i = 0 to pairs - 1 do
    if gain b.def next.(i) base.(i) > 0. then incr won
  done;
  let ((bq1, bmed, bq3) as bq) = Metric.quartiles base in
  let ((nq1, nmed, nq3) as nq) = Metric.quartiles next in
  let spread_b = bq3 -. bq1 and spread_n = nq3 -. nq1 in
  let scale = Float.abs bmed in
  let all_better =
    Array.for_all (fun n -> Array.for_all (fun x -> gain b.def n x > 0.) base) next
  in
  let verdict =
    if pairs = 0 then "unresolved"
    else if
      float_of_int !won >= 0.9 *. float_of_int pairs && gain b.def nmed bmed > spread_b
    then "improved"
    else if -.gain b.def nmed bmed > b.bound *. scale then "regressed"
    else if (spread_b > b.bound *. scale || spread_n > b.bound *. Float.abs nmed) && not all_better
    then "unresolved"
    else "unchanged"
  in
  (bq, nq, !won, pairs, verdict)

let quartile_cell (q1, med, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3

let metric_row workload b bruns nruns =
  let pick runs =
    Array.of_list (List.filter_map (fun r -> value b.def.Metric.name r.metrics) runs)
  in
  let bv = pick bruns and nv = pick nruns in
  if Array.length bv = 0 || Array.length nv = 0 then None
  else
    let bq, nq, won, pairs, verdict = judge b bv nv in
    Some
      {
        workload;
        metric = b.def.Metric.name;
        base = quartile_cell bq;
        next = quartile_cell nq;
        won = Printf.sprintf "%d/%d" won pairs;
        verdict;
      }

(* Incorrect runs, failed ops and attempted ops of one side. *)
let failures runs =
  List.fold_left
    (fun (bad, f, a) r -> ((if r.correct then bad else bad + 1), f + r.failed, a + r.attempted))
    (0, 0, 0) runs

(* NEW regressed when any of its runs is incorrect or it fails a larger
   share of its ops than BASE. *)
let failure_row workload bruns nruns =
  let ((bbad, bf, ba) as b) = failures bruns and ((nbad, nf, na) as n) = failures nruns in
  let rate f a = if a = 0 then 0. else float_of_int f /. float_of_int a in
  let cell (bad, f, a) = Printf.sprintf "%d/%d ops, %d incorrect" f a bad in
  let verdict =
    if nbad > 0 || rate nf na > rate bf ba then "regressed"
    else if nbad < bbad || rate nf na < rate bf ba then "improved"
    else "unchanged"
  in
  { workload; metric = "failures"; base = cell b; next = cell n; won = "-"; verdict }

(* Per workload present on both sides: one row per end-to-end metric, then
   the failure row. A gain does not count when NEW fails more: its
   "improved" rows then read "unresolved". *)
let compare_runs bounds base next =
  List.concat_map
    (fun (workload, bruns) ->
      match List.assoc_opt workload next with
      | None -> []
      | Some nruns ->
          let fails = failure_row workload bruns nruns in
          let rows = List.filter_map (fun b -> metric_row workload b bruns nruns) bounds in
          let rows =
            if fails.verdict <> "regressed" then rows
            else
              List.map
                (fun r -> if r.verdict = "improved" then { r with verdict = "unresolved" } else r)
                rows
          in
          rows @ [ fails ])
    base

let print_rows rows =
  let line w m b n won v = Printf.printf "%-15s %-13s %-30s %-30s %-7s %s\n" w m b n won v in
  line "workload" "metric" "base median [q1, q3]" "new median [q1, q3]" "won" "verdict";
  List.iter (fun r -> line r.workload r.metric r.base r.next r.won r.verdict) rows

(* Exit status: 1 when anything regressed, 0 otherwise. *)
let run ~bench ~base ~next =
  match load_bounds bench with
  | Error e ->
      prerr_endline ("suite: " ^ e);
      2
  | Ok bounds ->
      let rows = compare_runs bounds (load_runs base) (load_runs next) in
      print_rows rows;
      if List.exists (fun r -> r.verdict = "regressed") rows then 1 else 0
