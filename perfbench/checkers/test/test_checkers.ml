(* The benchmark's checkers on hand-made decompositions: the valid ones
   pass, and each broken condition is rejected. *)

open Checkers

(* a(x,y) b(y,z) c(z,w): a path, so an HD of width 2 exists *)
let path = hypergraph [ ("a", [ "x"; "y" ]); ("b", [ "y"; "z" ]); ("c", [ "z"; "w" ]) ]

let parse h text =
  match parse_decomposition h text with
  | Ok d -> d
  | Error e -> Alcotest.failf "parse failed: %s" e

let valid_hd = "{x, y, z} [a, b]\n  {z, w} [c]\n"

let rejects what vs = Alcotest.(check bool) what true (vs <> [])
let accepts what vs = Alcotest.(check (list string)) what [] vs

let test_valid () =
  let d = parse path valid_hd in
  accepts "valid HD" (hd_violations path d);
  accepts "valid HD is a GHD" (ghd_violations path d);
  Alcotest.(check int) "width" 2 (width d)

let test_edge_not_covered () =
  rejects "edge c in no bag" (ghd_violations path (parse path "{x, y, z} [a, b]\n"))

let test_disconnected () =
  (* y in the root and in the grandchild, not in the child between *)
  let d = parse path "{x, y} [a]\n  {z, w} [c]\n    {y, z} [b]\n" in
  rejects "y disconnected" (ghd_violations path d)

let test_bag_not_covered () =
  rejects "z not covered" (ghd_violations path (parse path "{x, y, z} [a]\n  {z, w} [c]\n  {y, z} [b]\n"))

let test_cover_not_subset () =
  let d = parse path "{x, y, z} [a~{x,z}, b]\n  {z, w} [c]\n" in
  rejects "subedge outside its edge" (ghd_violations path d)

let test_special_condition () =
  (* a GHD whose root cover reaches z, which occurs below but not in the
     root bag *)
  let d = parse path "{x, y} [a, b]\n  {y, z, w} [b, c]\n" in
  accepts "still a GHD" (ghd_violations path d);
  rejects "special condition" (hd_violations path d)

let test_subedge_not_hd () =
  let d = parse path "{x, y, z} [a, b~{z}]\n  {z, w} [c]\n" in
  accepts "GHD with a subedge" (ghd_violations path d);
  rejects "an HD covers with whole edges" (hd_violations path d)

let test_parse_errors () =
  let bad text =
    match parse_decomposition path text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error _ -> ()
  in
  bad "{x, q} [a]\n";
  bad "{x, y} [zz]\n";
  bad "{x, y [a]\n";
  bad "{x, y} [a]\n{z, w} [c]\n";
  bad "{x, y} [a]\n   {z, w} [c]\n";
  bad "{x, y} [a]\n    {z, w} [c]\n";
  bad ""

let test_quoted_names () =
  let h = hypergraph [ ("e,1", [ "a b"; "c\"d" ]) ] in
  let d = parse h "{\"a b\", \"c\\\"d\"} [\"e,1\"]\n" in
  accepts "quoted names" (hd_violations h d)

let triangle = hypergraph [ ("a", [ "x"; "y" ]); ("b", [ "y"; "z" ]); ("c", [ "z"; "x" ]) ]
let v name = Option.get (vertex_id triangle name)

let fhd cover = { fbag = List.sort compare [ v "x"; v "y"; v "z" ]; fcover = cover; fchildren = [] }

let test_fractional () =
  let half = fhd [ (0, 0.5); (1, 0.5); (2, 0.5) ] in
  accepts "rho* cover of the triangle" (fhd_violations triangle half);
  Alcotest.(check (float 1e-9)) "width 1.5" 1.5 (fwidth half);
  rejects "x short of weight" (fhd_violations triangle (fhd [ (0, 0.5); (1, 0.5); (2, 0.4) ]));
  rejects "negative weight" (fhd_violations triangle (fhd [ (0, 1.0); (1, 1.0); (2, -0.5) ]));
  rejects "unknown edge" (fhd_violations triangle (fhd [ (0, 1.0); (7, 1.0) ]));
  rejects "edge in no bag"
    (fhd_violations triangle { fbag = [ v "x"; v "y" ]; fcover = [ (0, 1.0) ]; fchildren = [] })

let test_gyo () =
  let acyclic what expect edges = Alcotest.(check bool) what expect (alpha_acyclic (hypergraph edges)) in
  acyclic "path" true [ ("a", [ "x"; "y" ]); ("b", [ "y"; "z" ]) ];
  acyclic "triangle" false [ ("a", [ "x"; "y" ]); ("b", [ "y"; "z" ]); ("c", [ "z"; "x" ]) ];
  acyclic "triangle under a big edge" true
    [ ("a", [ "x"; "y" ]); ("b", [ "y"; "z" ]); ("c", [ "z"; "x" ]); ("d", [ "x"; "y"; "z" ]) ];
  acyclic "4-cycle" false
    [ ("a", [ "1"; "2" ]); ("b", [ "2"; "3" ]); ("c", [ "3"; "4" ]); ("d", [ "4"; "1" ]) ];
  acyclic "two components" true [ ("a", [ "x"; "y" ]); ("b", [ "u"; "w" ]) ];
  acyclic "single edge" true [ ("a", [ "x" ]) ]

let () =
  Alcotest.run "perfbench checkers"
    [ ( "integral",
        [ Alcotest.test_case "valid HD" `Quick test_valid;
          Alcotest.test_case "edge not covered" `Quick test_edge_not_covered;
          Alcotest.test_case "disconnected vertex" `Quick test_disconnected;
          Alcotest.test_case "bag not covered" `Quick test_bag_not_covered;
          Alcotest.test_case "cover not a subedge" `Quick test_cover_not_subset;
          Alcotest.test_case "special condition" `Quick test_special_condition;
          Alcotest.test_case "subedge in an HD" `Quick test_subedge_not_hd;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "quoted names" `Quick test_quoted_names ] );
      ("fractional", [ Alcotest.test_case "covers" `Quick test_fractional ]);
      ("gyo", [ Alcotest.test_case "acyclicity" `Quick test_gyo ]) ]
