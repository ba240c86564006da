(* The campaign workload: [Experiments.prepare_campaign] on the default
   repository, each round in a fresh child process, and the traced
   layer-by-layer replay of the same protocol. *)

let seed = 2019
let scale = 1.0
let fuel = 100_000
let jobs = 2
let max_k = 8
let ghd_ks = [ 3; 4; 5; 6 ]
let budget () = Kit.Deadline.of_fuel fuel
let setup_repeats = 9

(* ------------------------------------------------------------------ *)
(* The program's values in the checkers' terms                         *)
(* ------------------------------------------------------------------ *)

let checker_of_hg = Corpus.checker_of

(* Vertex ids are translated through names: the checkers number
   vertices on their own. Edge ids agree (both in edge order). *)
let vertex_map h ch =
  Array.map
    (fun name ->
      match Checkers.vertex_id ch name with Some v -> v | None -> failwith ("vertex not in checker graph: " ^ name))
    h.Hg.Hypergraph.vertex_names

let node_of_decomp h ch d : Checkers.node =
  let vm = vertex_map h ch in
  let ids s = List.sort compare (List.map (fun v -> vm.(v)) (Kit.Bitset.to_list s)) in
  let rec go (u : Decomp.node) : Checkers.node =
    {
      bag = ids u.Decomp.bag;
      cover =
        List.map
          (fun (c : Decomp.cover_elt) ->
            match c.Decomp.source with
            | Decomp.Original e | Decomp.Subedge e -> { Checkers.edge = e; verts = ids c.Decomp.vertices }
            | Decomp.Special -> { Checkers.edge = -1; verts = [] })
          u.Decomp.cover;
      children = List.map go u.Decomp.children;
    }
  in
  go d

let fnode_of_fhd h ch f : Checkers.fnode =
  let vm = vertex_map h ch in
  let rec go (u : Decomp.Fractional.fnode) : Checkers.fnode =
    {
      fbag = List.sort compare (List.map (fun v -> vm.(v)) (Kit.Bitset.to_list u.Decomp.Fractional.fbag));
      fcover = u.Decomp.Fractional.fcover;
      fchildren = List.map go u.Decomp.Fractional.fchildren;
    }
  in
  go f

let has_special (d : Checkers.node) =
  let rec go (u : Checkers.node) =
    List.exists (fun (c : Checkers.cover) -> c.edge < 0) u.cover || List.exists go u.children
  in
  go d

let hd_errors h ch d =
  let n = node_of_decomp h ch d in
  if has_special n then [ "special edge in witness" ] else Checkers.hd_violations ch n

let ghd_errors h ch d =
  let n = node_of_decomp h ch d in
  if has_special n then [ "special edge in witness" ] else Checkers.ghd_violations ch n

let eps = 1e-6

(* A fractional witness: valid FHD, and its claimed width is the largest
   bag weight. *)
let fhd_errors h ch fhd ~claimed =
  let f = fnode_of_fhd h ch fhd in
  let w = Checkers.fwidth f in
  Checkers.fhd_violations ~eps ch f
  @ (if Float.abs (w -. claimed) > 1e-6 then
       [ Printf.sprintf "claimed width %g, bag weights reach %g" claimed w ]
     else [])

(* ------------------------------------------------------------------ *)
(* Checks on the campaign's outputs                                     *)
(* ------------------------------------------------------------------ *)

let check_record (r : Benchlib.Analysis.record) =
  let name = r.Benchlib.Analysis.instance.Benchlib.Instance.name in
  let h = r.Benchlib.Analysis.instance.Benchlib.Instance.hg in
  let ch = checker_of_hg h in
  let err fmt = Printf.ksprintf (fun s -> Printf.sprintf "%s: %s" name s) fmt in
  let witness =
    match (Benchlib.Analysis.hw_bound r, r.Benchlib.Analysis.hd) with
    | Some k, Some d ->
        let w = Checkers.width (node_of_decomp h ch d) in
        List.map (err "hw witness: %s") (hd_errors h ch d)
        @ (if w > k then [ err "witness width %d above hw %d" w k ] else [])
    | Some _, None -> [ err "yes without a witness" ]
    | None, _ -> []
  in
  let acyclic = Checkers.alpha_acyclic ch in
  let hw1 = r.Benchlib.Analysis.hw = Benchlib.Analysis.Exact 1 in
  let acyc =
    if acyclic <> hw1 then
      [ err "alpha-acyclic %b but hw status %s" acyclic
          (match r.Benchlib.Analysis.hw with
          | Exact k -> Printf.sprintf "exact %d" k
          | Upper k -> Printf.sprintf "upper %d" k
          | Open_above k -> Printf.sprintf "open above %d" k) ]
    else []
  in
  let exact =
    match r.Benchlib.Analysis.hw with
    | Exact k ->
        List.filter_map
          (fun (run : Benchlib.Analysis.hw_run) ->
            if run.k < k && run.outcome <> `No then Some (err "exact %d without a no at %d" k run.k)
            else None)
          r.Benchlib.Analysis.hw_runs
        @
        let nos = List.filter (fun (run : Benchlib.Analysis.hw_run) -> run.outcome = `No) r.hw_runs in
        if List.length nos <> k - 1 then [ err "exact %d with %d no answers" k (List.length nos) ] else []
    | _ -> []
  in
  witness @ acyc @ exact

let check_ghd (g : Benchlib.Analysis.ghd_record) =
  let outs = List.map (fun (r : Benchlib.Analysis.ghd_run) -> r.outcome) g.runs in
  if List.mem `Yes outs && List.mem `No outs then
    [ Printf.sprintf "%s: GHD yes and exact no at k=%d" g.name g.target_k ]
  else []

let check_frac (f : Benchlib.Analysis.frac_record) =
  let hw = float_of_int f.hw in
  let in_range w = w >= 1. -. eps && w <= hw +. eps in
  (if in_range f.improve_width then []
   else [ Printf.sprintf "%s: ImproveHD width %g outside [1, %d]" f.name f.improve_width f.hw ])
  @
  match f.frac_improve_width with
  | Some w when not (in_range w) ->
      [ Printf.sprintf "%s: FracImproveHD width %g outside [1, %d]" f.name w f.hw ]
  | _ -> []

type counts = { hw_exact : int; ghw_decided : int; fhw_decided : int }

let counts_of (ctx : Experiments.context) =
  {
    hw_exact =
      List.length
        (List.filter
           (fun (r : Benchlib.Analysis.record) ->
             match r.hw with Benchlib.Analysis.Exact _ -> true | _ -> false)
           ctx.records);
    ghw_decided =
      List.length (List.filter (fun (g : Benchlib.Analysis.ghd_record) -> g.combined <> `Timeout) ctx.ghd);
    fhw_decided =
      List.length
        (List.filter (fun (f : Benchlib.Analysis.frac_record) -> f.frac_improve_width <> None) ctx.frac);
  }

(* ------------------------------------------------------------------ *)
(* One timed round, in a fresh process                                  *)
(* ------------------------------------------------------------------ *)

let child () =
  let setups =
    List.init setup_repeats (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (Benchlib.Repository.build ~seed ~scale ()));
        Unix.gettimeofday () -. t0)
  in
  let t0 = Unix.gettimeofday () in
  let result = Experiments.prepare_campaign ~seed ~scale ~budget ~max_k ~jobs () in
  let campaign_s = Unix.gettimeofday () -. t0 in
  let rss = Daemon.peak_rss_mb 0 in
  let open Kit.Json in
  let out =
    match result with
    | Error e -> Obj [ ("error", String e) ]
    | Ok c ->
        let ctx = c.Experiments.context in
        let failed =
          List.filter
            (fun (t : Benchlib.Analysis.task) ->
              match t.result with Kit.Outcome.Ok _ -> false | _ -> true)
            c.Experiments.tasks
        in
        let violations =
          List.concat_map check_record ctx.records
          @ List.concat_map check_ghd ctx.ghd
          @ List.concat_map check_frac ctx.frac
        in
        let lat =
          List.concat_map
            (fun (r : Benchlib.Analysis.record) ->
              List.map (fun (run : Benchlib.Analysis.hw_run) -> run.seconds) r.hw_runs)
            ctx.records
          @ List.concat_map
              (fun (g : Benchlib.Analysis.ghd_record) ->
                List.map (fun (run : Benchlib.Analysis.ghd_run) -> run.seconds) g.runs)
              ctx.ghd
        in
        let n = counts_of ctx in
        Obj
          [ ("setup_s", Float (Trace.median setups));
            ("campaign_s", Float campaign_s);
            ("solver_s", Float (Experiments.solver_seconds ctx));
            ("peak_rss_mb", Float rss);
            ("instances", Int (List.length c.Experiments.tasks));
            ("failed", Int (List.length failed));
            ("hw_exact", Int n.hw_exact);
            ("ghw_decided", Int n.ghw_decided);
            ("fhw_decided", Int n.fhw_decided);
            ("violations", List (List.map (fun s -> String s) violations));
            ("latencies_s", List (List.map (fun s -> Float s) lat)) ]
  in
  print_endline (to_string out)

type round = {
  setup_s : float;
  campaign_s : float;
  solver_s : float;
  peak_rss_mb : float;
  instances : int;
  failed : int;
  counts : counts;
  violations : string list;
  latencies_s : float list;
}

let run_child () =
  let pid, out = Daemon.spawn Sys.executable_name [ "campaign-child" ] in
  let line = try input_line out with End_of_file -> "" in
  close_in_noerr out;
  let st = Daemon.wait_exit pid in
  if st <> Unix.WEXITED 0 then failwith ("campaign child failed: " ^ Daemon.describe st);
  let j = match Kit.Json.of_string line with Ok j -> j | Error e -> failwith ("campaign child output: " ^ e) in
  let get f k = match Option.bind (Kit.Json.member k j) f with Some v -> v | None -> failwith ("campaign child: no " ^ k ^ " in " ^ line) in
  let num = get Kit.Json.to_float and int = get Kit.Json.to_int in
  let strs k = List.filter_map Kit.Json.string_value (get Kit.Json.to_list k) in
  {
    setup_s = num "setup_s";
    campaign_s = num "campaign_s";
    solver_s = num "solver_s";
    peak_rss_mb = num "peak_rss_mb";
    instances = int "instances";
    failed = int "failed";
    counts = { hw_exact = int "hw_exact"; ghw_decided = int "ghw_decided"; fhw_decided = int "fhw_decided" };
    violations = strs "violations";
    latencies_s = List.filter_map Kit.Json.to_float (get Kit.Json.to_list "latencies_s");
  }

(* ------------------------------------------------------------------ *)
(* Traced replay                                                        *)
(* ------------------------------------------------------------------ *)

type replay = {
  r_counts : counts;
  r_wall : float;
  r_errors : string list;
  r_snap : (string * Kit.Metrics.snapshot) list;  (* counters after each phase *)
  r_rho_solves : int;
  r_rho_s : float;
  r_bal : int * int;  (* balsep runs decided, attempted *)
  r_local : int;
  r_global : int;
  r_detk : int * int;  (* calls, timeouts *)
}

let verdict_of (o : Detk.outcome) exact =
  match o with
  | Detk.Decomposition _ -> `Yes
  | Detk.No_decomposition -> if exact then `No else `Timeout
  | Detk.Timeout -> `Timeout

(* The campaign protocol, layer by layer at jobs = 1: profile, ladder,
   GHD at hw-1 for hw in 3..6, ImproveHD and FracImproveHD — each call
   under a fresh deadline of the same fuel. *)
let replay () =
  let span = Trace.with_span in
  let errors = ref [] in
  let err s = errors := s :: !errors in
  let snaps = ref [] in
  let phase name = snaps := (name, Kit.Metrics.snapshot ()) :: !snaps in
  let t0 = Unix.gettimeofday () in
  let instances = span "gen.build" (fun () -> Benchlib.Repository.build ~seed ~scale ()) in
  phase "start";
  let calls = ref 0 and timeouts = ref 0 in
  let ladder (inst : Benchlib.Instance.t) =
    span "instance" (fun () ->
        let h = inst.hg in
        ignore (span "properties" (fun () -> Hg.Properties.profile ~deadline:(budget ()) h));
        let rec go k nos had_timeout =
          if k > max_k then (None, had_timeout, nos)
          else begin
            incr calls;
            match span "detk" (fun () -> Detk.solve ~deadline:(budget ()) h ~k) with
            | Detk.Decomposition d -> (Some (k, d), had_timeout, nos)
            | Detk.No_decomposition -> go (k + 1) (nos + 1) had_timeout
            | Detk.Timeout -> incr timeouts; go (k + 1) nos true
          end
        in
        let found, had_timeout, _ = go 1 0 false in
        (match found with
        | Some (_, d) ->
            if span "validate" (fun () -> Decomp.check_hd h d) <> [] then
              err (inst.name ^ ": program's own validator rejects the hw witness");
            List.iter (fun e -> err (inst.name ^ ": " ^ e)) (span "bench.check" (fun () -> hd_errors h (checker_of_hg h) d))
        | None -> ());
        (inst, found, had_timeout))
  in
  let records = List.map ladder instances in
  phase "ladder";
  let hw_exact = List.length (List.filter (fun (_, f, t) -> f <> None && not t) records) in
  let bal_dec = ref 0 and bal_n = ref 0 and loc_dec = ref 0 and glob_dec = ref 0 in
  let ghw_decided =
    List.length
      (List.filter
         (fun ((inst : Benchlib.Instance.t), found, _) ->
           match found with
           | Some (hw, _) when List.mem hw ghd_ks ->
               let h = inst.hg and k = hw - 1 in
               let ch = checker_of_hg h in
               let run name decided solve =
                 let (o : Detk.outcome), exact = span name solve in
                 (match o with
                 | Detk.Decomposition d ->
                     List.iter (fun e -> err (Printf.sprintf "%s %s: %s" inst.name name e))
                       (span "bench.check" (fun () -> ghd_errors h ch d));
                     let w = Checkers.width (node_of_decomp h ch d) in
                     if w > k then err (Printf.sprintf "%s %s: GHD width %d above %d" inst.name name w k)
                 | _ -> ());
                 let v = verdict_of o exact in
                 if v <> `Timeout then incr decided;
                 v
               in
               incr bal_n;
               let vs =
                 [ run "ghd.balsep" bal_dec (fun () ->
                       let a = Ghd.Bal_sep.solve ~deadline:(budget ()) h ~k in
                       (a.Ghd.Bal_sep.outcome, a.Ghd.Bal_sep.exact));
                   run "ghd.localbip" loc_dec (fun () ->
                       let a = Ghd.Local_bip.solve ~deadline:(budget ()) h ~k in
                       (a.Ghd.Local_bip.outcome, a.Ghd.Local_bip.exact));
                   run "ghd.globalbip" glob_dec (fun () ->
                       let a = Ghd.Global_bip.solve ~deadline:(budget ()) h ~k in
                       (a.Ghd.Global_bip.outcome, a.Ghd.Global_bip.exact)) ]
               in
               if List.mem `Yes vs && List.mem `No vs then
                 err (Printf.sprintf "%s: GHD yes and exact no at k=%d" inst.name k);
               List.exists (fun v -> v <> `Timeout) vs
           | _ -> false)
         records)
  in
  phase "ghd";
  let fhw_decided =
    List.length
      (List.filter
         (fun ((inst : Benchlib.Instance.t), found, _) ->
           match found with
           | None -> false
           | Some (hw, hd) ->
               let h = inst.hg in
               let ch = checker_of_hg h in
               let hwf = float_of_int hw in
               let fhd = span "improve_hd" (fun () -> Fhd.Improve_hd.improve h hd) in
               let w = Decomp.Fractional.width fhd in
               List.iter (fun e -> err (inst.name ^ " ImproveHD: " ^ e)) (fhd_errors h ch fhd ~claimed:w);
               if w < 1. -. eps || w > hwf +. eps then
                 err (Printf.sprintf "%s: ImproveHD width %g outside [1, %d]" inst.name w hw);
               match
                 span "frac_improve" (fun () ->
                     try Fhd.Frac_improve_hd.best ~deadline:(budget ()) ~step:0.1 h ~k:hw
                     with Kit.Deadline.Timed_out -> None)
               with
               | None -> false
               | Some (fhd, w) ->
                   List.iter (fun e -> err (inst.name ^ " FracImproveHD: " ^ e)) (fhd_errors h ch fhd ~claimed:w);
                   if w < 1. -. eps || w > hwf +. eps then
                     err (Printf.sprintf "%s: FracImproveHD width %g outside [1, %d]" inst.name w hw);
                   true)
         records)
  in
  phase "frac";
  let wall = Unix.gettimeofday () -. t0 in
  (* LP cost per solve, at the LP's public entry point: rho* of every bag
     of every hw witness. *)
  let before = Kit.Metrics.get (Kit.Metrics.snapshot ()) "lp.solves" in
  let t1 = Unix.gettimeofday () in
  span "lp.rho" (fun () ->
      List.iter
        (fun ((inst : Benchlib.Instance.t), found, _) ->
          match found with
          | Some (_, hd) ->
              List.iter
                (fun (u : Decomp.node) -> ignore (Fhd.Frac_cover.rho_star inst.hg u.Decomp.bag))
                (Decomp.nodes hd)
          | None -> ())
        records);
  let rho_s = Unix.gettimeofday () -. t1 in
  let rho_solves = Kit.Metrics.get (Kit.Metrics.snapshot ()) "lp.solves" - before in
  {
    r_counts = { hw_exact; ghw_decided; fhw_decided };
    r_wall = wall;
    r_errors = List.rev !errors;
    r_snap = List.rev !snaps;
    r_rho_solves = rho_solves;
    r_rho_s = rho_s;
    r_bal = (!bal_dec, !bal_n);
    r_local = !loc_dec;
    r_global = !glob_dec;
    r_detk = (!calls, !timeouts);
  }
