(* A minimal HTTP/1.1 keep-alive client, kept apart from the program's
   own client so that a change there cannot move the benchmark's numbers.
   It speaks exactly what the load generator needs: requests with a
   Content-Length body, responses framed by Content-Length. *)

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

exception Protocol of string

(* Reads and writes give up after a minute, so a hung daemon fails the
   run instead of stalling it. *)
let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 60.;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  { fd; buf = Bytes.create 65536; pos = 0; len = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let fill c =
  if c.pos = c.len then begin
    c.pos <- 0;
    c.len <- Unix.read c.fd c.buf 0 (Bytes.length c.buf);
    if c.len = 0 then raise (Protocol "connection closed by peer")
  end

let read_line c =
  let b = Buffer.create 64 in
  let rec go () =
    fill c;
    let ch = Bytes.get c.buf c.pos in
    c.pos <- c.pos + 1;
    if ch = '\n' then
      let s = Buffer.contents b in
      let n = String.length s in
      if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
    else (Buffer.add_char b ch; go ())
  in
  go ()

let read_exact c n =
  let out = Bytes.create n in
  let rec go off =
    if off < n then begin
      fill c;
      let k = min (n - off) (c.len - c.pos) in
      Bytes.blit c.buf c.pos out off k;
      c.pos <- c.pos + k;
      go (off + k)
    end
  in
  go 0;
  Bytes.unsafe_to_string out

type response = { status : int; headers : (string * string) list; body : string }

let header r name = List.assoc_opt name r.headers

(* One request/response exchange on a kept-alive connection. Header
   names in the response are lowercased. *)
let request c ?(headers = []) ~meth ~target body =
  let head = Buffer.create 256 in
  Printf.bprintf head "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n" meth target;
  List.iter (fun (k, v) -> Printf.bprintf head "%s: %s\r\n" k v) headers;
  Printf.bprintf head "Content-Length: %d\r\n\r\n" (String.length body);
  let head = Buffer.contents head in
  write_all c.fd head 0 (String.length head);
  write_all c.fd body 0 (String.length body);
  let status =
    match String.split_on_char ' ' (read_line c) with
    | _ :: code :: _ -> (
        match int_of_string_opt code with
        | Some s -> s
        | None -> raise (Protocol "bad status line"))
    | _ -> raise (Protocol "bad status line")
  in
  let rec hdrs acc =
    match read_line c with
    | "" -> List.rev acc
    | l -> (
        match String.index_opt l ':' with
        | None -> raise (Protocol "bad header line")
        | Some i ->
            let k = String.lowercase_ascii (String.trim (String.sub l 0 i)) in
            let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
            hdrs ((k, v) :: acc))
  in
  let headers = hdrs [] in
  let len =
    match List.assoc_opt "content-length" headers with
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> n
        | _ -> raise (Protocol "bad Content-Length"))
    | None -> raise (Protocol "response without Content-Length")
  in
  { status; headers; body = read_exact c len }
