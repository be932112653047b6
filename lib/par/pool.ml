let default_jobs () = 1

let set_default_jobs j =
  if j <> 1 then
    invalid_arg "Pool.set_default_jobs: the program runs one domain"
