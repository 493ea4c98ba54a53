(* The client side of a resident [paredown serve --jobs 1] child. *)

module P = Service.Protocol

type t = {
  pid : int;
  to_server : out_channel;
  from_server : in_channel;
  mutable alive : bool;
}

let live : t list ref = ref []

(* The production defaults are what gets measured: no PAREDOWN_* switch
   reaches the server. *)
let clean_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"PAREDOWN_" kv))
  |> Array.of_list

let spawn ~exe =
  let srv_in, to_server = Unix.pipe ~cloexec:true () in
  let from_server, srv_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--jobs"; "1" |]
      (clean_env ()) srv_in srv_out Unix.stderr
  in
  Unix.close srv_in;
  Unix.close srv_out;
  let t =
    {
      pid;
      to_server = Unix.out_channel_of_descr to_server;
      from_server = Unix.in_channel_of_descr from_server;
      alive = true;
    }
  in
  live := t :: !live;
  t

exception Protocol_failure of string

(* One batch: the requests, a drain frame, then one response per request
   and the summary frame. *)
let batch t (requests : P.request list) =
  List.iter (fun r -> P.write_frame t.to_server (P.render_request r)) requests;
  P.write_frame t.to_server P.drain_frame;
  flush t.to_server;
  let read () =
    match P.read_frame t.from_server with
    | Some f -> f
    | None -> raise (Protocol_failure "server closed the stream")
  in
  let responses =
    List.map
      (fun _ ->
        match P.parse_response (read ()) with
        | Ok r -> r
        | Error e -> raise (Protocol_failure e))
      requests
  in
  if not (P.is_summary (read ())) then
    raise (Protocol_failure "missing batch summary frame");
  responses

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
      in
      go ())

let server_peak_rss_mb t = peak_rss_mb (string_of_int t.pid)

(* End of stream shuts the server down; wait for it to exit. *)
let stop t =
  if t.alive then begin
    t.alive <- false;
    (try close_out t.to_server with Sys_error _ -> ());
    let _, status = Unix.waitpid [] t.pid in
    close_in_noerr t.from_server;
    live := List.filter (fun u -> u != t) !live;
    match status with
    | Unix.WEXITED 0 -> ()
    | _ -> raise (Protocol_failure "server exited abnormally")
  end

(* On any abnormal exit of the benchmark, no child outlives it. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun t ->
          if t.alive then begin
            t.alive <- false;
            (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ())
          end)
        !live)
