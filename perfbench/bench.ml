(* The repository benchmark.

     bench.exe --workload campaign|serve_miss|serve_hit --seed N
               --seconds S --trace 0|1

   Prints a readable report, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics of a traced run with --trace 1.
   Run it from the root of a built checkout (see perfbench/run.sh). *)

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median = Trace.median
let sum = List.fold_left ( +. ) 0.

type value = F of float | I of int

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * value) list;  (* name, unit, value *)
  errors : string list;
}

let print_report r =
  List.iter (fun e -> Printf.eprintf "check failed: %s\n" e) (List.filteri (fun i _ -> i < 20) r.errors);
  if List.length r.errors > 20 then Printf.eprintf "... %d more\n" (List.length r.errors - 20);
  Printf.printf "correct %b  attempted %d  failed %d\n" r.correct r.attempted r.failed;
  List.iter
    (fun (n, u, v) ->
      match v with
      | F x -> Printf.printf "  %-26s %14.6f %s\n" n x u
      | I x -> Printf.printf "  %-26s %14d %s\n" n x u)
    r.metrics;
  let open Kit.Json in
  print_endline
    (to_string
       (Obj
          [ ("correct", Bool r.correct);
            ("attempted", Int r.attempted);
            ("failed", Int r.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (n, u, v) ->
                     (n, Obj [ ("value", (match v with F x -> Float x | I x -> Int x)); ("unit", String u) ]))
                   r.metrics) ) ]))

(* Rounds of [f] until [seconds] have passed, at least one. *)
let rounds ~seconds f =
  let t0 = Unix.gettimeofday () in
  let rec go acc =
    let acc = f () :: acc in
    if Unix.gettimeofday () -. t0 < seconds then go acc else List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Timed runs                                                           *)
(* ------------------------------------------------------------------ *)

let campaign ~seconds =
  let rs =
    rounds ~seconds (fun () ->
        let r = Campaign.run_child () in
        Printf.eprintf "round: setup %.4fs campaign %.3fs rss %.1fMB\n%!" r.setup_s r.campaign_s r.peak_rss_mb;
        r)
  in
  let r0 = List.hd rs in
  let errors =
    List.concat_map (fun (r : Campaign.round) -> r.violations) rs
    @ List.filter_map
        (fun (r : Campaign.round) ->
          if r.counts <> r0.counts then Some "decided counts differ between rounds under the same fuel" else None)
        rs
  in
  let c = r0.counts in
  let lat = List.concat_map (fun (r : Campaign.round) -> List.map (fun s -> s *. 1000.) r.latencies_s) rs in
  let med f = median (List.map f rs) in
  {
    correct = errors = [];
    attempted = List.fold_left (fun n (r : Campaign.round) -> n + r.instances) 0 rs;
    failed = List.fold_left (fun n (r : Campaign.round) -> n + r.failed) 0 rs;
    errors;
    metrics =
      [ ("setup_s", "s", F (med (fun r -> r.setup_s)));
        ("campaign_s", "s", F (med (fun r -> r.campaign_s)));
        ( "rps", "1/s",
          F (float_of_int (List.fold_left (fun n (r : Campaign.round) -> n + r.instances) 0 rs)
             /. sum (List.map (fun (r : Campaign.round) -> r.campaign_s) rs)) );
        ("p50_ms", "ms", F (percentile 0.5 lat));
        ("p99_ms", "ms", F (percentile 0.99 lat));
        ("peak_rss_mb", "MB", F (med (fun r -> r.peak_rss_mb)));
        ("hw_exact", "count", I c.hw_exact);
        ("decided", "count", I (c.hw_exact + c.ghw_decided + c.fhw_decided)) ];
  }

let decided_counts answers =
  Array.fold_left
    (fun (yes, dec) a ->
      match a with
      | Some (Serve_load.Yes _) -> (yes + 1, dec + 1)
      | Some Serve_load.No -> (yes, dec + 1)
      | _ -> (yes, dec))
    (0, 0) answers

let serve ~hit ~seed ~seconds =
  let items = Corpus.build () in
  let order = Corpus.order ~seed (Array.length items) in
  let rs =
    rounds ~seconds (fun () ->
        let r = Serve_load.round ~hit ~items ~order in
        Printf.eprintf "round: setup %.4fs passes %s\n%!" r.setup_s
          (String.concat " " (List.map (fun (_, w) -> Printf.sprintf "%.3fs" w) r.passes));
        r)
  in
  let checked = List.map (fun r -> Serve_load.round_errors ~hit ~items r) rs in
  let counts = List.map (fun (answers, _) -> decided_counts answers) checked in
  let errors =
    List.concat_map snd checked
    @ List.filter_map
        (fun c -> if c <> List.hd counts then Some "decided counts differ between rounds under the same fuel" else None)
        counts
  in
  let all = List.concat_map Serve_load.all_samples rs in
  let timed = List.concat_map (fun (r : Serve_load.round) -> r.passes) rs in
  (* latency percentiles per pass (>= 1000 samples each), then the
     median over passes *)
  let per_pass p =
    median
      (List.map
         (fun (s, _) ->
           percentile p
             (List.filter_map (fun (x : Serve_load.sample) -> if x.status = 200 then Some x.ms else None) (Array.to_list s)))
         timed)
  in
  let count p = List.fold_left (fun n s -> n + Array.fold_left (fun n x -> if p x then n + 1 else n) 0 s) 0 all in
  let yes, dec = List.hd counts in
  let med f = median (List.map f rs) in
  {
    correct = errors = [];
    attempted = count (fun _ -> true);
    failed = count (fun (x : Serve_load.sample) -> x.status <> 200);
    errors;
    metrics =
      [ ("setup_s", "s", F (med (fun r -> r.setup_s)));
        ("campaign_s", "s", F (median (List.map snd timed)));
        ( "rps", "1/s",
          F (float_of_int (List.length timed * Array.length items) /. sum (List.map snd timed)) );
        ("p50_ms", "ms", F (per_pass 0.5));
        ("p99_ms", "ms", F (per_pass 0.99));
        ("peak_rss_mb", "MB", F (med (fun r -> r.rss_mb)));
        ("hw_exact", "count", I yes);
        ("decided", "count", I dec) ];
  }

(* ------------------------------------------------------------------ *)
(* Traced runs                                                          *)
(* ------------------------------------------------------------------ *)

let campaign_layers =
  [ ("gen.build_s", "s"); ("properties_s", "s"); ("detk_s", "s"); ("detk.calls", "count");
    ("detk.timeouts", "count"); ("detk.subproblems", "count"); ("balsep_s", "s");
    ("balsep.decided", "count"); ("balsep.separators_tried", "count");
    ("balsep.ns_per_separator", "ns"); ("localbip_s", "s"); ("localbip.decided", "count");
    ("globalbip_s", "s"); ("globalbip.decided", "count"); ("subedges.generated", "count");
    ("ghw_decided", "count"); ("improve_hd_s", "s"); ("frac_improve_s", "s");
    ("frac_improve.decided", "count"); ("fhw_decided", "count"); ("lp.solves", "count");
    ("lp.pivots", "count"); ("lp.rho_solves", "count"); ("lp.us_per_solve", "us");
    ("validate_s", "s"); ("pool.busy_s", "s"); ("pool.idle_s", "s") ]

let serve_layers =
  [ ("parse.hg_ms", "ms"); ("parse.hbx_ms", "ms"); ("parse.sql_ms", "ms"); ("parse.xcsp_ms", "ms");
    ("fingerprint_us", "us"); ("ladder_ms", "ms"); ("cache.find_ms", "ms"); ("cache.store_ms", "ms");
    ("encode_ms", "ms"); ("service.handler_ms", "ms"); ("http.overhead_ms", "ms");
    ("cache.hit", "count"); ("cache.miss", "count"); ("cache.store", "count");
    ("cache.invalid", "count") ]

let shared_layers =
  [ ("gc.minor_mwords", "Mwords"); ("gc.major_collections", "count"); ("trace.overhead_s", "s");
    ("trace.spans", "count") ]

(* Every per-layer metric, in one order; a layer the workload does not
   run reads 0. *)
let layer_report ~errors ~attempted ~failed values =
  let metrics =
    List.map
      (fun (n, u) ->
        let v = match List.assoc_opt n values with Some v -> v | None -> if u = "count" then I 0 else F 0. in
        (n, u, v))
      (campaign_layers @ serve_layers @ shared_layers)
  in
  { correct = errors = []; attempted; failed; errors; metrics }

let write_trace workload seed =
  Runinfo.mkdir_p Runinfo.dir;
  let path = Filename.concat Runinfo.dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed) in
  Trace.write path;
  Printf.printf "spans written to %s\n" path

let campaign_traced ~seed =
  let reference = Campaign.run_child () in
  let untraced = Campaign.replay () in
  Kit.Metrics.enabled := true;
  Kit.Metrics.reset ();
  Trace.reset ();
  let gc0 = Gc.quick_stat () in
  Trace.enabled := true;
  let traced = Campaign.replay () in
  Trace.enabled := false;
  let gc1 = Gc.quick_stat () in
  write_trace "campaign" seed;
  let spans = Trace.all () in
  let layers = Trace.by_layer spans in
  let total = Trace.total layers in
  let counter phase name =
    let snap p = List.assoc p traced.r_snap in
    let prev = match phase with "ladder" -> "start" | "ghd" -> "ladder" | _ -> "ghd" in
    Kit.Metrics.get (snap phase) name - Kit.Metrics.get (snap prev) name
  in
  let c = traced.r_counts and r = reference.counts in
  let errors =
    reference.violations @ untraced.r_errors @ traced.r_errors
    @ (if c <> r || untraced.r_counts <> r then
         [ Printf.sprintf
             "replay counts (hw %d, ghw %d, fhw %d) differ from the campaign's (hw %d, ghw %d, fhw %d)"
             c.hw_exact c.ghw_decided c.fhw_decided r.hw_exact r.ghw_decided r.fhw_decided ]
       else [])
  in
  let tried = counter "ghd" "balsep.separators_tried" in
  let bal_dec, _ = traced.r_bal in
  let calls, touts = traced.r_detk in
  let busy = reference.solver_s in
  layer_report ~errors ~attempted:reference.instances ~failed:reference.failed
    [ ("gen.build_s", F (total "gen.build")); ("properties_s", F (total "properties"));
      ("detk_s", F (total "detk")); ("detk.calls", I calls); ("detk.timeouts", I touts);
      ("detk.subproblems", I (counter "ladder" "detk.subproblems"));
      ("balsep_s", F (total "ghd.balsep")); ("balsep.decided", I bal_dec);
      ("balsep.separators_tried", I tried);
      ("balsep.ns_per_separator", F (if tried = 0 then 0. else total "ghd.balsep" *. 1e9 /. float_of_int tried));
      ("localbip_s", F (total "ghd.localbip")); ("localbip.decided", I traced.r_local);
      ("globalbip_s", F (total "ghd.globalbip")); ("globalbip.decided", I traced.r_global);
      ("subedges.generated", I (counter "ghd" "subedges.generated"));
      ("ghw_decided", I c.ghw_decided); ("improve_hd_s", F (total "improve_hd"));
      ("frac_improve_s", F (total "frac_improve")); ("frac_improve.decided", I c.fhw_decided);
      ("fhw_decided", I c.fhw_decided); ("lp.solves", I (counter "frac" "lp.solves"));
      ("lp.pivots", I (counter "frac" "lp.pivots")); ("lp.rho_solves", I traced.r_rho_solves);
      ( "lp.us_per_solve",
        F (if traced.r_rho_solves = 0 then 0. else traced.r_rho_s *. 1e6 /. float_of_int traced.r_rho_solves) );
      ("validate_s", F (total "validate")); ("pool.busy_s", F busy);
      ("pool.idle_s", F ((float_of_int Campaign.jobs *. reference.campaign_s) -. busy));
      ("gc.minor_mwords", F ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6));
      ("gc.major_collections", I (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("trace.overhead_s", F (traced.r_wall -. untraced.r_wall));
      ("trace.spans", I (List.length spans)) ]

let serve_traced ~hit ~seed ~workload =
  let items = Corpus.build () in
  let order = Corpus.order ~seed (Array.length items) in
  let t = Serve_load.traced ~hit ~items ~order in
  write_trace workload seed;
  let spans = Trace.all () in
  let selfs = Trace.self_times spans in
  (* per request: summed self time of each layer, then the median over
     the requests that reached the layer *)
  let per_req name scale =
    let tbl = Hashtbl.create 1024 in
    List.iter
      (fun ((s : Trace.span), self) ->
        if s.name = name then
          Hashtbl.replace tbl s.req (self +. Option.value (Hashtbl.find_opt tbl s.req) ~default:0.))
      selfs;
    median (Hashtbl.fold (fun _ v acc -> (v *. scale) :: acc) tbl [])
  in
  let per_call name scale = median (List.map (fun d -> d *. scale) (Trace.durations spans name)) in
  let _, errors = Serve_load.round_errors ~hit ~items t.t_round in
  let samples = Serve_load.all_samples t.t_round in
  let count p = List.fold_left (fun n s -> n + Array.fold_left (fun n x -> if p x then n + 1 else n) 0 s) 0 samples in
  let minor, major = t.t_gc in
  layer_report ~errors ~attempted:(count (fun _ -> true))
    ~failed:(count (fun (x : Serve_load.sample) -> x.status <> 200))
    ([ ("parse.hg_ms", F (per_call "parse.hg" 1e3)); ("parse.hbx_ms", F (per_call "parse.hbx" 1e3));
       ("parse.sql_ms", F (per_call "parse.sql" 1e3)); ("parse.xcsp_ms", F (per_call "parse.xcsp" 1e3));
       ("fingerprint_us", F (per_call "fingerprint" 1e6)); ("ladder_ms", F (per_req "detk" 1e3));
       ("cache.find_ms", F (per_call "cache.find" 1e3)); ("cache.store_ms", F (per_call "cache.store" 1e3));
       ("encode_ms", F (per_call "encode" 1e3)); ("service.handler_ms", F (per_call "service.handler" 1e3));
       ("http.overhead_ms", F (per_req "request" 1e3));
       ("detk.subproblems", I t.t_subproblems); ("gc.minor_mwords", F minor);
       ("gc.major_collections", I major);
       ("trace.overhead_s", F (t.t_wall_traced -. t.t_wall_untraced));
       ("trace.spans", I (List.length spans)) ]
    @ List.map (fun c -> (c, I (Serve_load.prom_counter t.t_page c))) Serve_load.cache_counters)

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline "usage: bench.exe --workload campaign|serve_miss|serve_hit --seed N --seconds S --trace 0|1";
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "campaign-child" ] -> Campaign.child ()
  | args ->
      let rec parse acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let workload = get "workload" and seed = int "seed" and seconds = float_of_int (int "seconds") in
      let trace = int "trace" = 1 in
      if not (Sys.file_exists Daemon.hyperbench) then (
        prerr_endline ("bench: " ^ Daemon.hyperbench ^ " is missing; build the checkout first");
        exit 2);
      let report =
        match (workload, trace) with
        | "campaign", false -> campaign ~seconds
        | "campaign", true -> campaign_traced ~seed
        | "serve_miss", false -> serve ~hit:false ~seed ~seconds
        | "serve_hit", false -> serve ~hit:true ~seed ~seconds
        | ("serve_miss" | "serve_hit"), true ->
            serve_traced ~hit:(workload = "serve_hit") ~seed ~workload
        | _ -> usage ()
      in
      print_report report;
      Daemon.reap_all ()
