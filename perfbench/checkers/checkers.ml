type hypergraph = {
  vnames : string array;
  enames : string array;
  edges : int list array;  (* sorted vertex ids *)
  vindex : (string, int) Hashtbl.t;
  eindex : (string, int) Hashtbl.t;
}

let hypergraph named =
  let vindex = Hashtbl.create 64 and eindex = Hashtbl.create 64 in
  let vnames = ref [] and nv = ref 0 in
  let vid name =
    match Hashtbl.find_opt vindex name with
    | Some i -> i
    | None ->
        let i = !nv in
        Hashtbl.add vindex name i;
        vnames := name :: !vnames;
        incr nv;
        i
  in
  let edges =
    List.mapi
      (fun i (ename, vs) ->
        if not (Hashtbl.mem eindex ename) then Hashtbl.add eindex ename i;
        List.sort_uniq compare (List.map vid vs))
      named
  in
  {
    vnames = Array.of_list (List.rev !vnames);
    enames = Array.of_list (List.map fst named);
    edges = Array.of_list edges;
    vindex;
    eindex;
  }

let vertex_count h = Array.length h.vnames
let edge_count h = Array.length h.edges
let vertex_id h name = Hashtbl.find_opt h.vindex name
let edge_id h name = Hashtbl.find_opt h.eindex name

type cover = { edge : int; verts : int list }
type node = { bag : int list; cover : cover list; children : node list }

let rec fold_nodes f acc u = List.fold_left (fold_nodes f) (f acc u) u.children
let width d = fold_nodes (fun w u -> max w (List.length u.cover)) 0 d

(* ------------------------------------------------------------------ *)
(* Text parser                                                         *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse_line h line =
  let len = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s in line %S" msg line)) in
  let skip () = while !pos < len && line.[!pos] = ' ' do incr pos done in
  let peek () = if !pos < len then Some line.[!pos] else None in
  let expect c =
    skip ();
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let name () =
    skip ();
    match peek () with
    | Some '"' ->
        incr pos;
        let b = Buffer.create 16 in
        let rec go () =
          if !pos >= len then fail "unterminated quoted name";
          let c = line.[!pos] in
          incr pos;
          if c = '"' then Buffer.contents b
          else if c = '\\' then begin
            if !pos >= len then fail "dangling escape";
            let e = line.[!pos] in
            incr pos;
            Buffer.add_char b
              (match e with 'n' -> '\n' | 'r' -> '\r' | 't' -> '\t' | e -> e);
            go ()
          end
          else (Buffer.add_char b c; go ())
        in
        go ()
    | _ ->
        let start = !pos in
        while !pos < len && not (String.contains ",{}[]~\"" line.[!pos]) do
          incr pos
        done;
        let s = String.trim (String.sub line start (!pos - start)) in
        if s = "" then fail "empty name" else s
  in
  (* [items close item] reads "item, item, ..." up to [close]. *)
  let items close item =
    skip ();
    if peek () = Some close then (incr pos; [])
    else
      let rec go acc =
        let x = item () in
        skip ();
        match peek () with
        | Some ',' -> incr pos; go (x :: acc)
        | Some c when c = close -> incr pos; List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or %C" close)
      in
      go []
  in
  let vertex () =
    let n = name () in
    match vertex_id h n with
    | Some v -> v
    | None -> fail (Printf.sprintf "unknown vertex %S" n)
  in
  expect '{';
  let bag = List.sort_uniq compare (items '}' vertex) in
  expect '[';
  let cover =
    items ']' (fun () ->
        let n = name () in
        let edge =
          match edge_id h n with
          | Some e -> e
          | None -> fail (Printf.sprintf "unknown edge %S" n)
        in
        skip ();
        if peek () = Some '~' then begin
          incr pos;
          expect '{';
          { edge; verts = List.sort_uniq compare (items '}' vertex) }
        end
        else { edge; verts = h.edges.(edge) })
  in
  skip ();
  if !pos < len then fail "trailing characters";
  (bag, cover)

let parse_decomposition h text =
  let node_line l =
    let indent = ref 0 in
    while !indent < String.length l && l.[!indent] = ' ' do incr indent done;
    if !indent mod 2 <> 0 then raise (Parse_error (Printf.sprintf "odd indentation in line %S" l));
    (!indent / 2, parse_line h l)
  in
  (* [subtree depth rest] takes the node at the head of [rest] and all
     following lines deeper than [depth] as its children. *)
  let rec subtree depth = function
    | (d, (bag, cover)) :: rest when d = depth ->
        let children, rest = forest (depth + 1) rest in
        ({ bag; cover; children }, rest)
    | _ -> raise (Parse_error "indentation skips a level")
  and forest depth = function
    | (d, _) :: _ as lines when d = depth ->
        let u, rest = subtree depth lines in
        let us, rest = forest depth rest in
        (u :: us, rest)
    | (d, _) :: _ when d > depth -> raise (Parse_error "indentation skips a level")
    | lines -> ([], lines)
  in
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) in
  match subtree 0 (List.map node_line lines) with
  | root, [] -> Ok root
  | _, _ :: _ -> Error "more than one root"
  | exception Parse_error m -> Error (if lines = [] then "empty decomposition" else m)

(* ------------------------------------------------------------------ *)
(* Conditions                                                          *)
(* ------------------------------------------------------------------ *)

let subset xs mem = List.for_all mem xs

let names h vs = String.concat "," (List.map (fun v -> h.vnames.(v)) vs)

(* The tree-decomposition conditions, shared by the integral and the
   fractional checks: [bags] is a preorder list of (bag, parent bag). *)
let td_violations h bags =
  let n = vertex_count h in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (* condition 1: every edge inside some bag *)
  let marks = List.map (fun (bag, _) ->
      let a = Array.make n false in
      List.iter (fun v -> if v >= 0 && v < n then a.(v) <- true) bag;
      a) bags
  in
  Array.iteri
    (fun e vs ->
      if not (List.exists (fun a -> subset vs (fun v -> a.(v))) marks) then
        err "edge %s is in no bag" h.enames.(e))
    h.edges;
  (* condition 2: the nodes holding v form one connected subtree — count
     the nodes holding v whose parent does not *)
  let tops = Array.make n 0 in
  List.iter
    (fun (bag, parent) ->
      List.iter
        (fun v ->
          if v < 0 || v >= n then err "bag vertex %d out of range" v
          else if not (List.mem v parent) then tops.(v) <- tops.(v) + 1)
        bag)
    bags;
  Array.iteri
    (fun v c -> if c > 1 then err "vertex %s is in %d disconnected parts" h.vnames.(v) c)
    tops;
  List.rev !errs

let preorder_bags get_bag get_children root =
  let rec go parent acc u =
    let acc = (get_bag u, parent) :: acc in
    List.fold_left (go (get_bag u)) acc (get_children u)
  in
  List.rev (go [] [] root)

let ghd_violations h d =
  let td = td_violations h (preorder_bags (fun u -> u.bag) (fun u -> u.children) d) in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  fold_nodes
    (fun () u ->
      List.iter
        (fun c ->
          if c.edge < 0 || c.edge >= edge_count h then err "cover edge out of range"
          else if not (subset c.verts (fun v -> List.mem v h.edges.(c.edge))) then
            err "cover element of %s is not a subset of it" h.enames.(c.edge))
        u.cover;
      let covered v = List.exists (fun c -> List.mem v c.verts) u.cover in
      if not (subset u.bag covered) then
        err "bag {%s} is not covered by its cover" (names h u.bag))
    () d;
  td @ List.rev !errs

let hd_violations h d =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let n = vertex_count h in
  (* returns the vertices of the subtree rooted at [u] *)
  let rec special u =
    let below = Array.make n false in
    List.iter (fun v -> below.(v) <- true) u.bag;
    List.iter
      (fun c -> Array.iteri (fun v b -> if b then below.(v) <- true) (special c))
      u.children;
    List.iter
      (fun c ->
        if c.verts <> h.edges.(c.edge) then
          err "cover element of %s is a subedge" h.enames.(c.edge);
        List.iter
          (fun v ->
            if below.(v) && not (List.mem v u.bag) then
              err "special condition fails at bag {%s}: %s" (names h u.bag)
                h.vnames.(v))
          c.verts)
      u.cover;
    below
  in
  match ghd_violations h d with
  | _ :: _ as vs -> vs
  | [] ->
      ignore (special d);
      List.rev !errs

(* ------------------------------------------------------------------ *)
(* Fractional decompositions                                           *)
(* ------------------------------------------------------------------ *)

type fnode = {
  fbag : int list;
  fcover : (int * float) list;
  fchildren : fnode list;
}

let rec fold_fnodes f acc u = List.fold_left (fold_fnodes f) (f acc u) u.fchildren

let fwidth d =
  fold_fnodes
    (fun w u -> Float.max w (List.fold_left (fun s (_, x) -> s +. x) 0. u.fcover))
    0. d

let fhd_violations ?(eps = 1e-6) h d =
  let td =
    td_violations h (preorder_bags (fun u -> u.fbag) (fun u -> u.fchildren) d)
  in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  fold_fnodes
    (fun () u ->
      let ok_edges =
        List.for_all
          (fun (e, w) ->
            if e < 0 || e >= edge_count h then (err "cover edge %d out of range" e; false)
            else if not (w >= 0.) then (err "negative weight on %s" h.enames.(e); false)
            else true)
          u.fcover
      in
      if ok_edges then
        List.iter
          (fun v ->
            let got =
              List.fold_left
                (fun s (e, w) -> if List.mem v h.edges.(e) then s +. w else s)
                0. u.fcover
            in
            if got < 1. -. eps then
              err "vertex %s of bag {%s} has cover weight %g" h.vnames.(v)
                (names h u.fbag) got)
          u.fbag)
    () d;
  td @ List.rev !errs

(* ------------------------------------------------------------------ *)
(* GYO                                                                 *)
(* ------------------------------------------------------------------ *)

let rec sorted_subset a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
      if x = y then sorted_subset a' b' else if x > y then sorted_subset a b' else false

let alpha_acyclic h =
  let edges = Array.copy h.edges in
  let alive = Array.make (Array.length edges) true in
  let count = Array.make (vertex_count h) 0 in
  let rec reduce () =
    Array.fill count 0 (Array.length count) 0;
    Array.iteri (fun i vs -> if alive.(i) then List.iter (fun v -> count.(v) <- count.(v) + 1) vs) edges;
    let changed = ref false in
    Array.iteri
      (fun i vs ->
        if alive.(i) then begin
          let vs' = List.filter (fun v -> count.(v) > 1) vs in
          if List.length vs' < List.length vs then (edges.(i) <- vs'; changed := true)
        end)
      edges;
    Array.iteri
      (fun i vs ->
        if alive.(i) then
          let contained = ref false in
          Array.iteri
            (fun j ws -> if j <> i && alive.(j) && sorted_subset vs ws then contained := true)
            edges;
          if !contained then (alive.(i) <- false; changed := true))
      edges;
    if !changed then reduce ()
  in
  reduce ();
  Array.fold_left (fun n a -> if a then n + 1 else n) 0 alive <= 1
