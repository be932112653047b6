type t = unit

let kd_tree = ()
