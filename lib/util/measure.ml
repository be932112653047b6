type sample = { wall_s : float; live_bytes : int; top_heap_bytes : int }

let word_bytes = Sys.word_size / 8

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  (x, t1 -. t0)

let live_bytes () =
  Gc.full_major ();
  let st = Gc.stat () in
  st.Gc.live_words * word_bytes

let run f =
  Gc.full_major ();
  let before = Gc.stat () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  Gc.full_major ();
  let after = Gc.stat () in
  let live = (after.Gc.live_words - before.Gc.live_words) * word_bytes in
  let top = (after.Gc.top_heap_words - before.Gc.top_heap_words) * word_bytes in
  (x, { wall_s = t1 -. t0; live_bytes = Stdlib.max 0 live; top_heap_bytes = Stdlib.max 0 top })

(* GC alarms only fire when a major cycle completes during the call; with a
   large idle heap the collector can pace a short run to zero completed
   cycles and miss the peak entirely. A sampler thread polls [Gc.stat]
   (which walks the heap and counts live words) instead. That is not
   deterministic either: the thread runs only when [f] yields the runtime
   lock, so which samples land inside the call depends on scheduling
   (measure.mli; ROADMAP.md item 3). *)
let run_with_peak f =
  Gc.full_major ();
  let baseline = (Gc.stat ()).Gc.live_words in
  let peak = ref baseline in
  let observe () =
    let live = (Gc.stat ()).Gc.live_words in
    if live > !peak then peak := live
  in
  let stop = Atomic.make false in
  let sampler =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          (* [Gc.stat] walks the whole heap; pace the sampling so that it
             stays a small fraction of the measured run even when the heap
             is large. *)
          let t0 = Unix.gettimeofday () in
          observe ();
          let took = Unix.gettimeofday () -. t0 in
          Thread.delay (Float.max 0.01 (10. *. took))
        done)
      ()
  in
  let x =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join sampler)
      f
  in
  (* The final working set may be larger than at the last sample. *)
  observe ();
  (x, Stdlib.max 0 ((!peak - baseline) * word_bytes), `Exact)
