(* In-process replay of the benchmark's request streams, linked against
   the program's libraries. Reads serve request lines (NDJSON) on stdin.

     pb_trace replay PLANS SPANS
       Runs every request the way the serve daemon does, on one domain:
       decode, the pipeline, simulations, the response envelope, and the
       plan compilation the daemon does between batches. PLANS is
       "presets" to compile every preset's plan first (what
       [tilings compile --all] and [serve --plans] do), or "-". With SPANS = 1
       each call into a module is wrapped in a span: the benchmark's own
       spans, around the program's public functions. Prints one JSON
       summary: wall time, per-span self/inclusive time and calls, the
       engine time of every request, the number of shared-cache tiles
       over M, and the program's Obs counters and timers. *)

let now = Unix.gettimeofday

type acc = { mutable self : float; mutable incl : float; mutable calls : int }

let tracing = ref false
let layers : (string, acc) Hashtbl.t = Hashtbl.create 16

(* Time spent in child spans of each open span, innermost first. *)
let open_children : float ref Stack.t = Stack.create ()

let span name f =
  if not !tracing then f ()
  else begin
    let children = ref 0.0 in
    Stack.push children open_children;
    let t0 = now () in
    let close () =
      let dt = now () -. t0 in
      ignore (Stack.pop open_children);
      (match Stack.top_opt open_children with Some p -> p := !p +. dt | None -> ());
      let a =
        match Hashtbl.find_opt layers name with
        | Some a -> a
        | None ->
          let a = { self = 0.0; incl = 0.0; calls = 0 } in
          Hashtbl.add layers name a;
          a
      in
      a.self <- a.self +. dt -. !children;
      a.incl <- a.incl +. dt;
      a.calls <- a.calls + 1
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* A memoized stage called ahead of [Pipeline.run_checked] so that its
   cost is attributed to its own layer; run_checked then finds it in the
   memo and reports any failure itself. *)
let stage name f =
  try ignore (span name f) with Invalid_argument _ | Failure _ | Engine_error.Error _ -> ()

let read_lines () =
  let rec go acc =
    match input_line stdin with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  go []

let compile_presets () =
  List.iter
    (fun (_, spec) -> span "plan.compile" (fun () -> ignore (Pipeline.plan_of spec)))
    (Kernels.all ())

(* Replies whose shared-cache tile exceeds M (shared_tile_over_budget). *)
let over_budget = ref 0

let wants_shared shared sims =
  shared || List.exists (fun s -> s.Pipeline.schedule = Pipeline.Optimal) sims

(* Returns the response line and the request's time in the engine. *)
let handle line =
  match span "serve.decode" (fun () -> Request.decode line) with
  | Error e ->
    (span "serve.encode" (fun () ->
       Serve_protocol.error_response ~v:e.Request.err_v ~id:e.Request.err_id e.Request.err),
     0.0)
  | Ok req ->
    let v = req.Request.v and id = req.Request.id and warnings = req.Request.warnings in
    let spec = req.Request.spec in
    let timed name f =
      let t0 = now () in
      let r = span name f in
      (r, now () -. t0)
    in
    let encode render = function
      | Ok x -> span "serve.encode" (fun () -> render x)
      | Error e -> span "serve.encode" (fun () -> Serve_protocol.error_response ~v ~id e)
    in
    (match req.Request.body with
    | Request.Analyze { m; sims; shared; timings } ->
      let shared = wants_shared shared sims in
      let checked, engine_s =
        timed "engine.run" (fun () ->
          stage "hbl.lower_bound" (fun () -> Pipeline.lower_bound spec ~m);
          if shared then stage "hbl.tile_shared" (fun () -> Pipeline.tile_shared spec ~m);
          Pipeline.run_checked (Pipeline.request ~shared spec ~m))
      in
      (match checked with
      | Ok { Report.tile_shared = Some b; _ } when Tiling.total_footprint spec b > m ->
        incr over_budget
      | _ -> ());
      let checked =
        Result.map
          (fun rep ->
            let sims =
              List.map (fun s -> span "loopexec.simulate" (fun () -> Pipeline.simulate spec ~m s)) sims
            in
            { rep with Report.sims })
          checked
      in
      ( encode
          (fun rep ->
            Serve_protocol.ok_response ~warnings ~v ~id ~report_json:(Report.to_json ~timings rep) ())
          checked,
        engine_s )
    | Request.Partition { procs; m_local; net } ->
      let checked, engine_s =
        timed "distrib.partition" (fun () ->
          Pipeline.partition_checked spec ~p:procs ~m_local ~net)
      in
      ( encode
          (fun sol ->
            Serve_protocol.partition_response ~warnings ~v ~id
              ~partition_json:(Partition_solve.to_json sol) ())
          checked,
        engine_s )
    | Request.Compile ->
      let checked, engine_s = timed "plan.compile" (fun () -> Pipeline.plan_of spec) in
      ( encode
          (fun plan ->
            Serve_protocol.plan_response ~warnings ~v ~id ~plan_json:(Tiling_plan.to_json plan) ())
          checked,
        engine_s )
    | Request.Sweep _ -> failwith "pb_trace: sweep requests are not part of the benchmark")

let replay presets spans =
  Pipeline.set_plan_mode Pipeline.Plan_deferred;
  tracing := spans;
  let lines = read_lines () in
  let t0 = now () in
  if presets then compile_presets ();
  let engine =
    List.map
      (fun line ->
        let response, engine_s = handle line in
        ignore (Sys.opaque_identity response);
        (* the daemon compiles newly met shapes after each batch *)
        if Pipeline.pending_count () > 0 then
          span "plan.compile" (fun () -> ignore (Pipeline.compile_pending ~jobs:1 ()));
        engine_s)
      lines
  in
  let wall = now () -. t0 in
  let snap = Obs.snapshot () in
  let obj fields = "{" ^ String.concat "," fields ^ "}" in
  let field k v = Printf.sprintf "%S:%s" k v in
  print_string
    (obj
       [
         field "wall_s" (Printf.sprintf "%.9f" wall);
         field "requests" (string_of_int (List.length lines));
         field "layers"
           (obj
              (Hashtbl.fold
                 (fun name a acc ->
                   field name
                     (Printf.sprintf {|{"self_s":%.9f,"incl_s":%.9f,"calls":%d}|} a.self a.incl
                        a.calls)
                   :: acc)
                 layers []));
         field "shared_over_budget" (string_of_int !over_budget);
         field "engine_s"
           ("[" ^ String.concat "," (List.map (Printf.sprintf "%.9f") engine) ^ "]");
         field "counters"
           (obj (List.map (fun (k, v) -> field k (string_of_int v)) snap.Obs.scounters));
         field "gauges"
           (obj
              (List.map (fun (k, g) -> field k (string_of_int g.Obs.gvalue)) snap.Obs.sgauges));
         field "timers"
           (obj
              (List.map
                 (fun (k, t) ->
                   field k (Printf.sprintf {|{"calls":%d,"s":%.9f}|} t.Obs.tcalls t.Obs.tseconds))
                 snap.Obs.stimers));
       ]);
  print_newline ()

let () =
  match Array.to_list Sys.argv with
  | [ _; "replay"; plans; spans ] -> replay (plans = "presets") (spans = "1")
  | _ ->
    prerr_endline "usage: pb_trace replay presets|- 0|1  (requests on stdin)";
    exit 2
