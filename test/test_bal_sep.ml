(* BalSep deadline polling: the separator-candidate enumeration loop polls
   the deadline, so a cancelled or exhausted budget stops the search inside
   one node's enumeration rather than only between nodes. Kept in its own
   suite so the group name does not widen the columns of the GHD suite's
   report. *)

module H = Hg.Hypergraph

let fano =
  H.of_int_edges
    [
      [ 0; 1; 2 ];
      [ 0; 3; 4 ];
      [ 0; 5; 6 ];
      [ 1; 3; 5 ];
      [ 1; 4; 6 ];
      [ 2; 3; 6 ];
      [ 2; 4; 5 ];
    ]

let with_metrics f =
  Kit.Metrics.reset ();
  Kit.Metrics.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Kit.Metrics.enabled := false;
      Kit.Metrics.reset ())
    f

(* Deadline polls fire INSIDE the separator-candidate enumeration loop,
   not just at node expansions and separator trials. With
   [use_subedges:false] those three are the only poll sites, and node
   expansions and separator trials each pair 1:1 with a metric (the
   balsep.depth histogram and balsep.separators_tried), so
   [consumed - nodes - separators] counts exactly the in-loop polls. *)
let enumeration_polls_deadline () =
  with_metrics (fun () ->
      let budget = 2_000_000 in
      let d = Kit.Deadline.of_fuel budget in
      (match
         (Ghd.Bal_sep.solve ~deadline:d ~use_subedges:false fano ~k:2)
           .Ghd.Bal_sep.outcome
       with
      | Detk.Timeout -> Alcotest.fail "unexpected timeout"
      | Detk.No_decomposition | Detk.Decomposition _ -> ());
      let consumed =
        budget - Option.value ~default:0 (Kit.Deadline.fuel_remaining d)
      in
      let snap = Kit.Metrics.snapshot () in
      let nodes =
        match Kit.Metrics.get_histogram snap "balsep.depth" with
        | Some (_, counts) -> Array.fold_left ( + ) 0 counts
        | None -> Alcotest.fail "balsep.depth histogram missing"
      in
      let separators = Kit.Metrics.get snap "balsep.separators_tried" in
      let in_loop = consumed - nodes - separators in
      Alcotest.(check bool)
        (Printf.sprintf
           "in-loop polls fired (consumed %d, nodes %d, separators %d)"
           consumed nodes separators)
        true (in_loop > 0))

(* A budget too small for even one node's candidate enumeration still
   times the search out (a once-per-node poll would sail past it inside
   the loop). *)
let enumeration_respects_tight_fuel () =
  let wide =
    H.of_int_edges (List.init 20 (fun i -> [ i; (i + 1) mod 20; (i + 9) mod 20 ]))
  in
  match
    (Ghd.Bal_sep.solve ~deadline:(Kit.Deadline.of_fuel 40) wide ~k:2)
      .Ghd.Bal_sep.outcome
  with
  | Detk.Timeout -> ()
  | Detk.Decomposition _ -> Alcotest.fail "expected timeout on tight fuel, got yes"
  | Detk.No_decomposition -> Alcotest.fail "expected timeout on tight fuel, got no"

let () =
  Alcotest.run "bal_sep"
    [
      ( "deadline polling",
        [
          Alcotest.test_case "polls inside enumeration" `Quick
            enumeration_polls_deadline;
          Alcotest.test_case "tight fuel times out" `Quick
            enumeration_respects_tight_fuel;
        ] );
    ]
