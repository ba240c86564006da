(* The serve workloads: a closed-loop load generator on one keep-alive
   connection against [hyperbench serve], and the traced in-process
   variant.

   One connection, not two: the daemon's worker threads share one OCaml
   domain, so a second connection adds no throughput, and a short request
   on one connection waits for the runtime lock while the other
   connection's request solves — its latency then measures that wait,
   which spreads by a quarter between runs. *)

let fuel = Campaign.fuel
let target = Printf.sprintf "/decompose?fuel=%d" fuel
let hit_passes = 3  (* timed hit passes per serve_hit round *)

type sample = {
  ms : float;
  status : int;
  cache : string;  (* X-HB-Cache, "" when absent *)
  body : string;
}

let failed_sample = { ms = 0.; status = 0; cache = ""; body = "" }

(* ------------------------------------------------------------------ *)
(* Answer checks                                                        *)
(* ------------------------------------------------------------------ *)

type answer = Yes of int | No | Timeout

let check_answer (it : Corpus.item) body =
  let ( let* ) = Result.bind in
  let* j = Kit.Json.of_string body in
  let field k = Kit.Json.member k j in
  let* () =
    match Option.bind (field "fingerprint") Kit.Json.string_value with
    | Some fp when fp = it.fp -> Ok ()
    | _ -> Error "fingerprint differs from the generated hypergraph's"
  in
  match Option.bind (field "verdict") Kit.Json.string_value with
  | Some "timeout" -> Ok Timeout
  | Some "no" -> Ok No
  | Some "yes" -> (
      match
        ( Option.bind (field "width") Kit.Json.to_int,
          Option.bind (field "k") Kit.Json.to_int,
          Option.bind (field "decomposition") Kit.Json.string_value )
      with
      | Some w, Some k, Some text ->
          let* d = Checkers.parse_decomposition it.check text in
          let* () =
            match Checkers.hd_violations it.check d with
            | [] -> Ok ()
            | v :: _ -> Error ("invalid HD: " ^ v)
          in
          let* () =
            if Checkers.width d = w && w = k then Ok ()
            else Error (Printf.sprintf "width %d, k %d, witness width %d" w k (Checkers.width d))
          in
          let* () =
            match it.family with
            | Corpus.Clique n when w <> (n + 1) / 2 -> Error (Printf.sprintf "K%d answered %d" n w)
            | Corpus.Cycle when w <> 2 -> Error (Printf.sprintf "cycle answered %d" w)
            | Corpus.Hypertree when w <> 1 -> Error (Printf.sprintf "hypertree answered %d" w)
            | _ -> Ok ()
          in
          if Checkers.alpha_acyclic it.check <> (w = 1) then
            Error (Printf.sprintf "width %d but alpha-acyclic is %b" w (w <> 1))
          else Ok (Yes w)
      | _ -> Error "yes without width, k or decomposition")
  | _ -> Error "no verdict"

(* ------------------------------------------------------------------ *)
(* Closed-loop pass                                                     *)
(* ------------------------------------------------------------------ *)

let post conn (it : Corpus.item) ~headers =
  Wire.request conn ~meth:"POST" ~target
    ~headers:(("Content-Type", Corpus.content_type it.format) :: headers)
    it.body

(* Post every corpus item once, in [order], on one kept-alive
   connection, each request after the previous answer. Returns per-item
   samples (indexed by corpus position) and the wall time of the pass.
   [tag] adds headers to a request; [on_done] sees its start and end. A
   broken connection ends the run with an exception; an HTTP error status
   is recorded and counted as a failed request. *)
let pass ?(tag = fun _ -> []) ?(on_done = fun _ _ _ -> ()) ~port (items : Corpus.item array) order =
  let samples = Array.make (Array.length items) failed_sample in
  let conn = Wire.connect port in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun idx ->
      let s = Unix.gettimeofday () in
      let r = post conn items.(idx) ~headers:(tag idx) in
      let e = Unix.gettimeofday () in
      on_done idx s e;
      samples.(idx) <-
        { ms = (e -. s) *. 1000.; status = r.Wire.status;
          cache = Option.value (Wire.header r "x-hb-cache") ~default:"";
          body = r.Wire.body })
    order;
  let wall = Unix.gettimeofday () -. t0 in
  Wire.close conn;
  (samples, wall)

(* Counter values from a Prometheus text page. *)
let prom_counter page name =
  let key = "hb_" ^ String.map (fun c -> if c = '.' then '_' else c) name ^ " " in
  String.split_on_char '\n' page
  |> List.find_map (fun l ->
         if String.length l > String.length key && String.sub l 0 (String.length key) = key then
           int_of_string_opt (String.trim (String.sub l (String.length key) (String.length l - String.length key)))
         else None)
  |> Option.value ~default:0

let metrics_page port =
  let c = Wire.connect port in
  Fun.protect ~finally:(fun () -> Wire.close c) (fun () ->
      let r = Wire.request c ~meth:"GET" ~target:"/metrics" "" in
      if r.Wire.status <> 200 then failwith "GET /metrics failed";
      r.Wire.body)

(* ------------------------------------------------------------------ *)
(* Timed rounds against the daemon                                      *)
(* ------------------------------------------------------------------ *)

(* Scratch caches are removed when the run exits (also on a signal), not
   between rounds: deleting thousands of files slows the next fsyncs for
   seconds on a filesystem with online discard, which would land in the
   next round's timed pass. *)
let scratch_dirs : string list ref = ref []

let () = at_exit (fun () -> List.iter Runinfo.rm_rf !scratch_dirs)

let scratch_dir name =
  let d = Filename.concat Runinfo.dir (Printf.sprintf "%s-%d-%d" name (Unix.getpid ()) (Trace.fresh_id ())) in
  Runinfo.rm_rf d;
  Runinfo.mkdir_p d;
  scratch_dirs := d :: !scratch_dirs;
  d

type round = {
  setup_s : float;
  warm : sample array option;  (* serve_hit: the warm-up pass *)
  passes : (sample array * float) list;  (* timed passes *)
  rss_mb : float;
  counters : (string * int) list;
}

let cache_counters = [ "cache.hit"; "cache.miss"; "cache.store"; "cache.invalid" ]

(* One daemon lifetime: spawn on an empty cache, warm it up (serve_hit),
   run the timed passes, read /metrics and the daemon's peak RSS, then
   SIGTERM and insist on exit 0. *)
let round ~hit ~items ~order =
  let cache = if hit then Some (scratch_dir "cache-hit") else None in
  let t0 = Unix.gettimeofday () in
  let d = Daemon.start ?cache () in
  let warm = if hit then Some (fst (pass ~port:d.port items order)) else None in
  let setup_s = Unix.gettimeofday () -. t0 in
  let passes = List.init (if hit then hit_passes else 1) (fun _ -> pass ~port:d.port items order) in
  let page = metrics_page d.port in
  let rss_mb = Daemon.peak_rss_mb d.pid in
  Daemon.stop d;
  { setup_s; warm; passes; rss_mb; counters = List.map (fun c -> (c, prom_counter page c)) cache_counters }

let all_samples r =
  (match r.warm with Some w -> [ w ] | None -> []) @ List.map fst r.passes

(* Every check of one round. Requests that got no 200 are failures,
   counted apart; everything else must be right. *)
let round_errors ~hit ~(items : Corpus.item array) r =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let label i = Printf.sprintf "%s (%s)" items.(i).name (Corpus.format_name items.(i).format) in
  let solved = match r.warm with Some w -> w | None -> fst (List.hd r.passes) in
  let answers =
    Array.mapi
      (fun i (s : sample) ->
        if s.status <> 200 then None
        else
          match check_answer items.(i) s.body with
          | Ok a -> Some a
          | Error e -> err "%s: %s" (label i) e; None)
      solved
  in
  let get k = List.assoc k r.counters in
  if get "cache.invalid" <> 0 then err "cache.invalid = %d" (get "cache.invalid");
  if (not hit) && get "cache.hit" <> 0 then err "cache.hit = %d on the miss path" (get "cache.hit");
  if hit then
    List.iter
      (fun ((samples : sample array), _) ->
        Array.iteri
          (fun i (s : sample) ->
            if s.status = 200 then
              match answers.(i) with
              | Some (Yes _ | No) ->
                  if s.cache <> "hit" then
                    err "%s: decided at warm-up but answered with X-HB-Cache %S" (label i) s.cache;
                  if s.body <> solved.(i).body then
                    err "%s: hit answer differs from the warm-up answer" (label i)
              | _ -> (
                  (* a warm-up timeout is solved again *)
                  match check_answer items.(i) s.body with
                  | Ok _ -> ()
                  | Error e -> err "%s: %s" (label i) e))
          samples)
      r.passes;
  (answers, List.rev !errs)

(* ------------------------------------------------------------------ *)
(* Traced run                                                           *)
(* ------------------------------------------------------------------ *)

(* [Benchlib.Service.handler] hosted in-process behind [Serve.Server]
   (one worker thread), with a span around every handler call. The
   request's client-side span id and request id travel in headers. *)
let with_server ?cache f =
  let svc =
    { (Benchlib.Service.default_config ()) with
      Benchlib.Service.cache = Option.map (fun dir -> Benchlib.Result_cache.create ~dir) cache;
      isolate = false;
      mem_mb = None }
  in
  let handle = Benchlib.Service.handler svc in
  let handler req =
    let num h = Option.bind (Serve.Http.header req h) int_of_string_opt in
    match (num "x-perfbench-span", num "x-perfbench-req") with
    | Some parent, Some rid when !Trace.enabled ->
        let t0 = Unix.gettimeofday () in
        let r = handle req in
        Trace.record ~parent ~req:rid "service.handler" t0 (Unix.gettimeofday ());
        r
    | _ -> handle req
  in
  let cfg = { (Serve.Server.default_config ()) with host = "127.0.0.1"; port = 0; jobs = 1; rate = 0. } in
  let srv = Serve.Server.create cfg handler in
  let th = Thread.create Serve.Server.serve srv in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop srv; Thread.join th)
    (fun () -> f (Serve.Server.port srv))

(* A pass whose requests are spans: "request" on the client, its child
   "service.handler" on the server. *)
let traced_pass ~port items order =
  let ids = Array.map (fun _ -> Trace.fresh_id ()) items in
  pass ~port items order
    ~tag:(fun i -> [ ("X-Perfbench-Span", string_of_int ids.(i)); ("X-Perfbench-Req", string_of_int (i + 1)) ])
    ~on_done:(fun i t0 t1 -> Trace.record ~id:ids.(i) ~req:(i + 1) "request" t0 t1)

(* The layer calls behind one request, made directly on the same body:
   parse, fingerprint, then the width ladder as the handler runs it
   (cache lookup per level, Detk on a miss, store of definitive
   verdicts, encoding of the witness). *)
let layer_calls ~cache (items : Corpus.item array) order =
  let span = Trace.with_span in
  Array.iter
    (fun idx ->
      let it = items.(idx) and req = idx + 1 in
      let h =
        match span ~req ("parse." ^ Corpus.format_name it.format) (fun () -> Corpus.parse it.format it.body) with
        | Some h -> h
        | None -> failwith ("corpus item no longer parses: " ^ it.name)
      in
      ignore (span ~req "fingerprint" (fun () -> Hg.Hypergraph.fingerprint h));
      let deadline = Kit.Deadline.of_fuel fuel and sweep = Detk.sweep_cache () in
      let encode d = ignore (span ~req "encode" (fun () -> Decomp_io.to_text h d)) in
      let rec go k =
        if k <= 8 then
          match span ~req "cache.find" (fun () -> Benchlib.Result_cache.find cache h ~meth:"hd" ~k) with
          | Some (Benchlib.Result_cache.Yes d) -> encode d
          | Some Benchlib.Result_cache.No -> go (k + 1)
          | None -> (
              match span ~req "detk" (fun () -> Detk.solve ~deadline ~sweep h ~k) with
              | Detk.Decomposition d ->
                  span ~req "cache.store" (fun () ->
                      Benchlib.Result_cache.store cache h ~meth:"hd" ~k (Benchlib.Result_cache.Yes d));
                  encode d
              | Detk.No_decomposition ->
                  span ~req "cache.store" (fun () ->
                      Benchlib.Result_cache.store cache h ~meth:"hd" ~k Benchlib.Result_cache.No);
                  go (k + 1)
              | Detk.Timeout -> ())
      in
      go 1)
    order

type traced = {
  t_round : round;  (* the traced pass, for the checks *)
  t_wall_untraced : float;
  t_wall_traced : float;
  t_page : string;  (* /metrics after the traced pass *)
  t_subproblems : int;  (* detk.subproblems over the layer calls *)
  t_gc : float * int;  (* minor Mwords, major collections over the traced pass *)
}

(* The untraced and the traced pass each run on a server of their own,
   after the same history (serve_hit: a warm-up pass and a settling hit
   pass, since a warm-up timeout may be decided when it is sent again),
   so the two passes do the same work and their difference is the
   tracing overhead. Counters are reset before the traced pass. *)
let traced ~hit ~items ~order =
  Kit.Metrics.enabled := true;
  let fresh () = scratch_dir (Printf.sprintf "trace-cache-%d" (Trace.fresh_id ())) in
  let c1 = fresh () and c2 = fresh () and c3 = fresh () in
  let history port = if hit then List.init 2 (fun _ -> fst (pass ~port items order)) else [] in
  let server_cache c = if hit then Some c else None in
  let wall_u =
    with_server ?cache:(server_cache c1) (fun port -> ignore (history port); snd (pass ~port items order))
  in
  let warm, traced_pass_result, page, gc0, gc1 =
    with_server ?cache:(server_cache c2) (fun port ->
        let warm = match history port with w :: _ -> Some w | [] -> None in
        Kit.Metrics.reset ();
        let gc0 = Gc.quick_stat () in
        Trace.enabled := true;
        let r = traced_pass ~port items order in
        Trace.enabled := false;
        let gc1 = Gc.quick_stat () in
        (warm, r, metrics_page port, gc0, gc1))
  in
  let _, wall_t = traced_pass_result in
  (* layer calls: on the warm cache for serve_hit; for serve_miss on
     a cold one, which times the store the daemon's warm-up pays *)
  let cache = Benchlib.Result_cache.create ~dir:(if hit then c2 else c3) in
  let sub0 = Kit.Metrics.get (Kit.Metrics.snapshot ()) "detk.subproblems" in
  Trace.enabled := true;
  layer_calls ~cache items order;
  Trace.enabled := false;
  let sub1 = Kit.Metrics.get (Kit.Metrics.snapshot ()) "detk.subproblems" in
  {
    t_round =
      { setup_s = 0.; warm; passes = [ traced_pass_result ]; rss_mb = 0.;
        counters = List.map (fun c -> (c, prom_counter page c)) cache_counters };
    t_wall_untraced = wall_u;
    t_wall_traced = wall_t;
    t_page = page;
    t_subproblems = sub1 - sub0;
    t_gc =
      ( (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6,
        gc1.Gc.major_collections - gc0.Gc.major_collections );
  }
