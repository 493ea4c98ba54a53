(* Benchmark-side spans around calls into the program's public
   functions.  Kept in memory and written out when the run ends.  A
   span's self time is its duration minus the part its children cover
   (children never overlap: the client is single-threaded). *)

type span = {
  mutable name : string;
  op : int;  (** the operation the span belongs to *)
  parent : int;  (** index of the enclosing span, -1 at top level *)
  start_ns : int64;
  mutable stop_ns : int64;
  mutable child_ns : int64;
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;
  mutable op : int;
}

let create () = { spans = [||]; len = 0; stack = []; op = 0 }

let set_op t op = t.op <- op

let clear t =
  t.len <- 0;
  t.stack <- []

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

let enter t name =
  let parent = match t.stack with i :: _ -> i | [] -> -1 in
  let i =
    push t
      { name; op = t.op; parent; start_ns = Obs.Clock.now_ns ();
        stop_ns = 0L; child_ns = 0L }
  in
  t.stack <- i :: t.stack;
  i

let leave t i =
  let s = t.spans.(i) in
  s.stop_ns <- Obs.Clock.now_ns ();
  t.stack <- List.tl t.stack;
  if s.parent >= 0 then begin
    let p = t.spans.(s.parent) in
    p.child_ns <- Int64.add p.child_ns (Int64.sub s.stop_ns s.start_ns)
  end

let with_span t name f =
  let i = enter t name in
  Fun.protect ~finally:(fun () -> leave t i) f

(* A span whose name is only known once the call has returned (a verify
   tier is named by its verdict). *)
let with_named_span t f =
  let i = enter t "" in
  let r, name = Fun.protect ~finally:(fun () -> leave t i) f in
  t.spans.(i).name <- name;
  r

let count t = t.len

let self_ms s =
  Int64.to_float (Int64.sub (Int64.sub s.stop_ns s.start_ns) s.child_ns) /. 1e6

(* Sum of self times per span name, each scaled by its operation's
   calibration factor. *)
let self_by_name ?(scale = fun _ -> 1.) t =
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let prev = Option.value (Hashtbl.find_opt tbl s.name) ~default:0. in
    Hashtbl.replace tbl s.name (prev +. (self_ms s *. scale s.op))
  done;
  tbl

let to_json t =
  let num x = Obs.Json.Num x in
  Obs.Json.Arr
    (List.init t.len (fun i ->
         let s = t.spans.(i) in
         Obs.Json.Obj
           [
             ("name", Obs.Json.Str s.name);
             ("op", num (float_of_int s.op));
             ("parent", num (float_of_int s.parent));
             ("start_ns", num (Int64.to_float s.start_ns));
             ("end_ns", num (Int64.to_float s.stop_ns));
           ]))

let write t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Obs.Json.to_string (to_json t)))
