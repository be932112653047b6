let now_s () = Unix.gettimeofday ()

type t = {
  armed : bool;
  deadline : float;
  poll_every : int;
  expire_after_polls : int;  (* max_int = never *)
  mutable countdown : int;   (* checks left before the next clock read *)
  mutable polls : int;
  mutable clock_reads : int;
  mutable expired : bool;
}

let unlimited =
  {
    armed = false;
    deadline = infinity;
    poll_every = 1;
    expire_after_polls = max_int;
    countdown = 0;
    polls = 0;
    clock_reads = 0;
    expired = false;
  }

let create ?(poll_every = 64) ?(expire_after_polls = max_int) ~timeout_s () =
  if poll_every < 1 then invalid_arg "Budget.create: poll_every < 1";
  if expire_after_polls < 1 then
    invalid_arg "Budget.create: expire_after_polls < 1";
  {
    armed = true;
    deadline = now_s () +. timeout_s;
    poll_every;
    expire_after_polls;
    countdown = 1;  (* read the clock on the very first poll *)
    polls = 0;
    clock_reads = 0;
    expired = false;
  }

let for_stage ?timeout_s name =
  match (timeout_s, Fault.param ("timeout." ^ name)) with
  | None, None -> unlimited
  | cap, forced_polls ->
      create ?expire_after_polls:forced_polls
        ~timeout_s:(Option.value cap ~default:1e9)
        ()

let armed t = t.armed
let expired t = t.expired
let expire t = if t.armed then t.expired <- true
let polls t = t.polls
let clock_reads t = t.clock_reads

let read_clock t =
  t.clock_reads <- t.clock_reads + 1;
  t.countdown <- t.poll_every;
  if now_s () >= t.deadline then t.expired <- true

let check t =
  t.expired
  || t.armed
     && begin
          t.polls <- t.polls + 1;
          if t.polls >= t.expire_after_polls then t.expired <- true
          else begin
            t.countdown <- t.countdown - 1;
            if t.countdown <= 0 then read_clock t
          end;
          t.expired
        end

let check_now t =
  t.expired
  || t.armed
     && begin
          t.polls <- t.polls + 1;
          if t.polls >= t.expire_after_polls then t.expired <- true
          else read_clock t;
          t.expired
        end

let remaining_s t =
  if not t.armed then infinity
  else if t.expired then 0.
  else Float.max 0. (t.deadline -. now_s ())
