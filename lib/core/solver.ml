type algorithm =
  | Greedy
  | Min_cost_flow
  | Prune
  | Exhaustive
  | Random_v
  | Random_u
  | Greedy_naive
  | Greedy_ls
  | Online

let all =
  [
    Greedy; Min_cost_flow; Prune; Exhaustive; Random_v; Random_u;
    Greedy_naive; Greedy_ls; Online;
  ]

let name = function
  | Greedy -> "Greedy-GEACC"
  | Min_cost_flow -> "MinCostFlow-GEACC"
  | Prune -> "Prune-GEACC"
  | Exhaustive -> "Exhaustive"
  | Random_v -> "Random-V"
  | Random_u -> "Random-U"
  | Greedy_naive -> "Greedy-GEACC (naive)"
  | Greedy_ls -> "Greedy-GEACC + LS"
  | Online -> "Online-Greedy"

let short_name = function
  | Greedy -> "greedy"
  | Min_cost_flow -> "mincostflow"
  | Prune -> "prune"
  | Exhaustive -> "exhaustive"
  | Random_v -> "random-v"
  | Random_u -> "random-u"
  | Greedy_naive -> "greedy-naive"
  | Greedy_ls -> "greedy-ls"
  | Online -> "online"

let of_string s =
  let s = String.lowercase_ascii s in
  match List.find_opt (fun a -> short_name a = s) all with
  | Some a -> Ok a
  | None ->
      Error
        (Printf.sprintf "unknown algorithm %S (expected one of: %s)" s
           (String.concat ", " (List.map short_name all)))

let is_exact = function
  | Prune | Exhaustive -> true
  | Greedy | Min_cost_flow | Random_v | Random_u | Greedy_naive | Greedy_ls
  | Online ->
      false

let run ?rng ?deadline algorithm instance =
  let rng =
    match rng with Some r -> r | None -> Geacc_util.Rng.create ~seed:42
  in
  match algorithm with
  | Greedy -> fst (Greedy.solve_anytime ?deadline instance)
  | Min_cost_flow -> Mincostflow.solve ?deadline instance
  | Prune -> Exact.solve_prune ?deadline instance
  | Exhaustive -> Exact.solve_exhaustive ?deadline instance
  | Random_v -> Random_baseline.random_v ~rng instance
  | Random_u -> Random_baseline.random_u ~rng instance
  | Greedy_naive -> Greedy_naive.solve instance
  | Greedy_ls -> Local_search.solve ?deadline instance
  | Online -> Online.solve_random_order ?deadline ~rng instance
