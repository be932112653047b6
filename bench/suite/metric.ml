(* The suite's metric catalogue and the order statistics it reports.
   BENCHMARK.json lists the same names and units; the smoke test checks
   that the two agree. *)

type better = Lower | Higher

type def = { name : string; unit : string; better : better }

let better_name = function Lower -> "lower" | Higher -> "higher"

let d name unit better = { name; unit; better }

(* Printed by every untraced run, for every workload. An op is one cold
   solve on the solve workloads and one batch on the serve workloads. *)
let end_to_end =
  [
    d "setup_s" "s" Lower;
    d "op_p50_ms" "ms" Lower;
    d "ops_per_s" "1/s" Higher;
    d "maxsum" "sim" Higher;
    d "heap_mb" "MB" Lower;
  ]

(* Printed by every traced run. A [_pct] metric is a layer's share of the
   op wall [trace.op_ms]; a layer a workload bypasses reads 0. *)
let per_layer =
  [
    d "trace.op_ms" "ms" Lower;
    d "trace.residual_pct" "%" Lower;
    d "trace.overhead_pct" "%" Lower;
    d "index.build_pct" "%" Lower;
    d "index.query_pct" "%" Lower;
    d "index.candidates" "count" Lower;
    d "index.streams_event" "count" Lower;
    d "index.streams_user" "count" Lower;
    d "flow.emit_pct" "%" Lower;
    d "flow.csr_pct" "%" Lower;
    d "flow.ssp_pct" "%" Lower;
    d "flow.dijkstra_pass_pct" "%" Lower;
    d "flow.arcs" "count" Lower;
    d "flow.augmentations" "count" Lower;
    d "core.resolve_pct" "%" Lower;
    d "core.greedy_pct" "%" Lower;
    d "core.dropped_pairs" "count" Lower;
    d "core.int_fallback" "count" Lower;
    d "core.matched_pairs" "count" Higher;
    d "core.conflict_probe_ns" "ns" Lower;
    d "serve.admission_pct" "%" Lower;
    d "serve.journal_pct" "%" Lower;
    d "serve.apply_pct" "%" Lower;
    d "serve.instance_pct" "%" Lower;
    d "serve.instance_rebuilds" "count" Lower;
    d "serve.repair_pct" "%" Lower;
    d "serve.users_replayed" "count" Lower;
    d "serve.full_replays" "count" Lower;
    d "serve.repair_useful_ratio" "ratio" Higher;
    d "serve.commit_pct" "%" Lower;
    d "serve.ack_pct" "%" Lower;
    d "serve.snapshot_pct" "%" Lower;
    d "serve.snapshots" "count" Lower;
    d "serve.recover_snapshot_pct" "%" Lower;
    d "serve.recover_journal_pct" "%" Lower;
    d "serve.snapshot_mb" "MB" Lower;
    d "serve.n_users" "count" Lower;
    d "serve.live_users" "count" Lower;
  ]

(* What one workload run reports. [values] may omit per-layer metrics the
   workload bypasses (they print as 0); it must cover every end-to-end
   metric. [info] goes to the meta line: sample counts and the like. *)
type result = {
  attempted : int;
  failed : int;
  errors : string list;  (* correctness-gate failures, one line each *)
  values : (string * float) list;
  info : (string * Json.t) list;
}

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile q a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median a = quantile 0.5 a

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (the default "exclusive" method), so the comparator's spread matches
   the one the benchmark contract is judged by. *)
let quartiles a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let sum a = Array.fold_left ( +. ) 0. a

(* Share of [part] in [whole], in percent. *)
let pct part whole = if whole > 0. then 100. *. part /. whole else 0.
