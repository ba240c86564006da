(* The serve corpus: a fingerprint-distinct set of hypergraphs, each
   posted once per pass in one of the four input formats the daemon
   accepts. It is fixed by generators, their seeds and a structural
   filter — never by what the solver decides:

   - the HyperBench-style repository at seed 2019, scale 5 (977
     instances), keeping instances with at least [min_edges] edges;
   - known-width families: cliques K_3..K_12 (hw = ceil(n/2)), cycles
     C_3..C_102 (hw = 2), and 100 random hypertrees (α-acyclic by
     construction, hw = 1) from seed 2019;
   - every SQL query of Gen.Workloads (TPC-H, TPC-DS, JOB), sent as SQL.

   Items whose fingerprint was already taken are dropped. Non-SQL items
   rotate through HG text, Hg.Binary and XCSP (Xcsp.to_xml) by position;
   an XCSP turn goes to HG text when a vertex name is not an identifier.
   The workload seed only permutes the order of requests. *)

type format = Hg_text | Hbx | Sql | Xcsp

type family = Repository | Clique of int | Cycle | Hypertree | Sql_query

type item = {
  name : string;
  format : format;
  family : family;
  body : string;
  fp : string;  (* fingerprint of the generated hypergraph *)
  check : Checkers.hypergraph;
      (* the hypergraph as the daemon will name it, for the checkers *)
}

let format_name = function Hg_text -> "hg" | Hbx -> "hbx" | Sql -> "sql" | Xcsp -> "xcsp"

let content_type = function
  | Hg_text -> "text/plain"
  | Hbx -> "application/x-hyperbench-binary"
  | Sql -> "application/sql"
  | Xcsp -> "application/xml"

let min_edges = 3
let repository_seed = 2019
let repository_scale = 5.0

let named_edges h =
  List.init h.Hg.Hypergraph.n_edges (fun e ->
      ( Hg.Hypergraph.edge_name h e,
        List.map (Hg.Hypergraph.vertex_name h)
          (Kit.Bitset.to_list (Hg.Hypergraph.edge h e)) ))

let checker_of h = Checkers.hypergraph (named_edges h)

let clique n =
  let v i = Printf.sprintf "k%d" i in
  Hg.Hypergraph.of_named_edges
    (List.concat_map
       (fun i ->
         List.filter_map
           (fun j -> if j > i then Some (Printf.sprintf "e%d_%d" i j, [ v i; v j ]) else None)
           (List.init n Fun.id))
       (List.init n Fun.id))

let cycle n =
  Hg.Hypergraph.of_named_edges
    (List.init n (fun i ->
         (Printf.sprintf "c%d" i, [ Printf.sprintf "x%d" i; Printf.sprintf "x%d" ((i + 1) mod n) ])))

(* Each new edge shares a non-empty subset of one earlier edge and adds
   fresh vertices, so the earlier edge is its join-tree parent. *)
let hypertree rng ~id =
  let fresh = ref 0 in
  let vert () = incr fresh; Printf.sprintf "t%d_%d" id !fresh in
  let first = List.init (Kit.Rng.int_in rng 2 5) (fun _ -> vert ()) in
  let n_edges = Kit.Rng.int_in rng 3 20 in
  let edges = Array.make n_edges first in
  for i = 1 to n_edges - 1 do
    let parent = Array.of_list edges.(Kit.Rng.int rng i) in
    Kit.Rng.shuffle rng parent;
    let shared = Array.to_list (Array.sub parent 0 (Kit.Rng.int_in rng 1 (Array.length parent))) in
    edges.(i) <- shared @ List.init (Kit.Rng.int_in rng 1 3) (fun _ -> vert ())
  done;
  Hg.Hypergraph.of_named_edges
    (Array.to_list (Array.mapi (fun i vs -> (Printf.sprintf "r%d" i, vs)) edges))

(* The hypergraph the daemon derives from a body — the same frontend
   entry points it calls. *)
let parse format body =
  let first_conv convs = List.find_map (fun (_, c) -> c.Sql.Convert.hypergraph) convs in
  match format with
  | Hg_text -> Result.to_option (Hg.Hypergraph.parse_report body)
  | Hbx -> Result.to_option (Hg.Binary.of_string_report body)
  | Xcsp -> Result.to_option (Xcsp3.Xcsp.read_report body)
  | Sql -> Option.join (Result.to_option (Result.map first_conv (Sql.Convert.sql_to_hypergraphs_report body)))

(* XCSP variable ids are identifiers; hypergraphs with other vertex names
   (the SQL-derived ones, "t.col") go as HG text instead. *)
let xcsp_ident name =
  name <> ""
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_')
       name

let build () =
  let seen = Hashtbl.create 2048 in
  let items = ref [] and pos = ref 0 in
  let add ~name ~family ?format ?body h =
    let fp = Hg.Hypergraph.fingerprint h in
    if not (Hashtbl.mem seen fp) then begin
      Hashtbl.add seen fp ();
      let format =
        match format with
        | Some f -> f
        | None -> (
            match [| Hg_text; Hbx; Xcsp |].(!pos mod 3) with
            | Xcsp when not (Array.for_all xcsp_ident h.Hg.Hypergraph.vertex_names) -> Hg_text
            | f -> f)
      in
      incr pos;
      let body =
        match (body, format) with
        | Some b, _ -> b
        | None, Hg_text -> Hg.Hypergraph.to_string h
        | None, Hbx -> Hg.Binary.to_string h
        | None, Xcsp -> Xcsp3.Xcsp.to_xml ~name:"perfbench" h
        | None, Sql -> invalid_arg "Corpus.add: SQL needs a body"
      in
      let parsed =
        match parse format body with
        | Some p when Hg.Hypergraph.fingerprint p = fp -> p
        | _ -> failwith (Printf.sprintf "corpus item %s does not round-trip as %s" name (format_name format))
      in
      items := { name; format; family; body; fp; check = checker_of parsed } :: !items
    end
  in
  Benchlib.Repository.build ~seed:repository_seed ~scale:repository_scale ()
  |> List.iter (fun (i : Benchlib.Instance.t) ->
         if i.hg.Hg.Hypergraph.n_edges >= min_edges then
           add ~name:i.name ~family:Repository i.hg);
  for n = 3 to 12 do add ~name:(Printf.sprintf "K%d" n) ~family:(Clique n) (clique n) done;
  for n = 3 to 102 do add ~name:(Printf.sprintf "C%d" n) ~family:Cycle (cycle n) done;
  let rng = Kit.Rng.create 2019 in
  for id = 1 to 100 do
    add ~name:(Printf.sprintf "tree%d" id) ~family:Hypertree (hypertree rng ~id)
  done;
  List.iter
    (fun (name, sql) ->
      match parse Sql sql with
      | Some h -> add ~name ~family:Sql_query ~format:Sql ~body:sql h
      | None -> failwith ("workload query does not convert: " ^ name))
    Gen.Workloads.(tpch_queries @ tpcds_queries @ job_queries);
  Array.of_list (List.rev !items)

(* Request order for one run: a permutation drawn from the workload seed. *)
let order ~seed n =
  let a = Array.init n Fun.id in
  Kit.Rng.shuffle (Kit.Rng.create seed) a;
  a
