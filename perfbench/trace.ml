(* In-memory spans for the traced run. Each span has a name, start and
   end (wall clock), the id of the span that caused it and a request id
   (0 outside the serve workloads). Spans are recorded from the
   benchmark's own code, around calls into the program's layers; they are
   written out as JSON lines when the run ends and reduced to self time
   per layer. Recording is off unless [enabled] is set, so the timed
   runs pay one branch per call site. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (* 0 = none *)
  req : int;
}

let enabled = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = Atomic.make 1

(* The innermost open span of the calling thread — only the single-
   threaded campaign replay nests spans through this; serve spans pass
   their parent explicitly. *)
let current = ref 0

let fresh_id () = Atomic.fetch_and_add next_id 1

let record ?(id = fresh_id ()) ?(parent = 0) ?(req = 0) name start stop =
  if !enabled then begin
    Mutex.lock lock;
    spans := { id; name; start; stop; parent; req } :: !spans;
    Mutex.unlock lock
  end

let with_span ?req name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () and parent = !current in
    current := id;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        current := parent;
        record ~id ~parent ?req name t0 (Unix.gettimeofday ()))
      f
  end

let reset () =
  spans := [];
  current := 0

let all () = List.rev !spans

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Kit.Json.to_string
               (Kit.Json.Obj
                  [ ("id", Kit.Json.Int s.id);
                    ("name", Kit.Json.String s.name);
                    ("start", Kit.Json.Float s.start);
                    ("end", Kit.Json.Float s.stop);
                    ("parent", Kit.Json.Int s.parent);
                    ("req", Kit.Json.Int s.req) ]));
          output_char oc '\n')
        (all ()))

(* ------------------------------------------------------------------ *)
(* Summariser                                                          *)
(* ------------------------------------------------------------------ *)

let duration s = s.stop -. s.start

(* Self time of every span: its duration minus the part of its interval
   covered by its children (children may overlap when they ran on other
   threads, so coverage is the measure of the union of their intervals,
   clipped to the parent). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max s.start c.start, Float.min s.stop c.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) kids
      in
      (s, Float.max 0. (duration s -. covered)))
    spans

(* Total self seconds per span name. *)
let by_layer spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name (self +. Option.value (Hashtbl.find_opt tbl s.name) ~default:0.))
    (self_times spans);
  tbl

let total tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:0.

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The whole duration (not self time) of each span with this name. *)
let durations spans name =
  List.filter_map (fun s -> if s.name = name then Some (duration s) else None) spans
