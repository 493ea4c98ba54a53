module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

let m_refine_rounds =
  Obs.Metrics.counter "service.canon_refine_rounds"
    ~doc:"colour-refinement rounds spent canonising networks"

let m_leaves =
  Obs.Metrics.counter "service.canon_leaves"
    ~doc:"discrete colourings rendered by the canonical-order search"

type t = {
  order : Node_id.t array;
  index : (Node_id.t, int) Hashtbl.t;
  rendered : string;
  digest : string;
  exact : bool;
}

(* ------------------------------------------------------------------ *)
(* Node signatures.                                                    *)
(* A node's signature is everything the partitioning backends and the
   rendered report can observe about its descriptor: class, arities,
   behaviour text, power-on outputs, and cost.  Deliberately NOT the
   descriptor name and NOT the node id/label — two networks that differ
   only in those produce byte-identical partition reports (the report
   speaks in member counts, shapes and costs), so they may share a cache
   entry. *)

let value_string v = Format.asprintf "%a" Behavior.Ast.pp_value v

let node_signature (d : Eblock.Descriptor.t) =
  let init =
    d.output_init |> Array.to_list |> List.map value_string
    |> String.concat ","
  in
  Printf.sprintf "%s/%d/%d/%s/%s/%h"
    (Eblock.Kind.to_string d.kind)
    d.n_inputs d.n_outputs
    (Digest.to_hex
       (Digest.string (Behavior.Ast.program_to_string d.behavior)))
    init d.cost

(* A network reuses a handful of descriptors across all its nodes, and
   printing and hashing a behaviour program dominates a signature, so
   each physical descriptor is signed once. *)
let signatures g ids =
  let memo = Hashtbl.create 16 in
  Array.map
    (fun id ->
      let d = Graph.descriptor g id in
      let name = d.Eblock.Descriptor.name in
      match List.assq_opt d (Hashtbl.find_all memo name) with
      | Some s -> s
      | None ->
        let s = node_signature d in
        Hashtbl.add memo name (d, s);
        s)
    ids

(* ------------------------------------------------------------------ *)
(* Colour refinement (1-dimensional Weisfeiler–Leman) with
   individualization on ties.  Positions (dense ints) stand in for node
   ids throughout; [ids.(p)] maps back.

   A round gives node [p] the key (colour of [p], sorted multiset of
   (direction, own port, other port, colour of other end)) over its
   edges — direction 0 = fanin, 1 = fanout — and re-ranks the keys
   densely in lexicographic order.  Each multiset element is packed
   into one int, [(static.(p).(e) * n) + colour], where [static] packs
   (direction, own port, other port) in radix [ports]; int order on the
   packed values is the lexicographic order on the tuples, so the
   colours are the ones a tuple comparison would give. *)

type state = {
  ids : Node_id.t array;
  sigs : string array;
  static : int array array;
  other : int array array;  (* the position at the other end of each edge *)
  edges : (int * int * int * int) array;
      (* (src pos, src port, dst pos, dst port) *)
  ports : int;  (* radix: one more than the largest port number *)
}

exception Fallback

let build g =
  let ids = Array.of_list (Graph.node_ids g) in
  let n = Array.length ids in
  let pos = Hashtbl.create (max 16 n) in
  Array.iteri (fun i id -> Hashtbl.replace pos id i) ids;
  let edges =
    Graph.edges g
    |> List.map (fun (e : Graph.edge) ->
           ( Hashtbl.find pos e.src.node,
             e.src.port,
             Hashtbl.find pos e.dst.node,
             e.dst.port ))
    |> Array.of_list
  in
  let ports =
    1 + Array.fold_left (fun m (_, sp, _, dp) -> max m (max sp dp)) 0 edges
  in
  let adj = Array.make n [] in
  Array.iter
    (fun (si, sp, di, dp) ->
      adj.(si) <- (((ports + sp) * ports) + dp, di) :: adj.(si);
      adj.(di) <- ((dp * ports) + sp, si) :: adj.(di))
    edges;
  {
    ids;
    sigs = signatures g ids;
    static = Array.map (fun l -> Array.of_list (List.map fst l)) adj;
    other = Array.map (fun l -> Array.of_list (List.map snd l)) adj;
    edges;
    ports;
  }

(* Lexicographic order on int arrays, a proper prefix first — the order
   of OCaml's structural compare on the equivalent lists. *)
let compare_keys a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i = la || i = lb then Int.compare la lb
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* A colouring: [color.(p)] in 0..[classes]-1, dense. *)
type coloring = { color : int array; classes : int }

(* Signatures ranked densely in string order. *)
let initial_coloring state =
  let ranked = List.sort_uniq String.compare (Array.to_list state.sigs) in
  let rank = Hashtbl.create (List.length ranked) in
  List.iteri (fun r s -> Hashtbl.replace rank s r) ranked;
  { color = Array.map (Hashtbl.find rank) state.sigs;
    classes = List.length ranked }

(* One refinement round.  The node's own colour leads its key, so new
   colours are ranked cell by cell in colour order, and a singleton cell
   needs no neighbour key at all. *)
let refine_round state { color; classes } =
  let n = Array.length color in
  let start = Array.make (classes + 1) 0 in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) color;
  for c = 1 to classes do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let cells = Array.make n 0 in
  let fill = Array.sub start 0 classes in
  Array.iteri
    (fun p c ->
      cells.(fill.(c)) <- p;
      fill.(c) <- fill.(c) + 1)
    color;
  let next = Array.make n 0 in
  let fresh = ref 0 in
  for c = 0 to classes - 1 do
    let lo = start.(c) and hi = start.(c + 1) in
    if hi - lo > 1 then begin
      let members = Array.sub cells lo (hi - lo) in
      let keys =
        Array.map
          (fun p ->
            let k =
              Array.map2
                (fun s q -> (s * n) + color.(q))
                state.static.(p) state.other.(p)
            in
            Array.sort Int.compare k;
            k)
          members
      in
      let by_key = Array.init (hi - lo) Fun.id in
      Array.sort (fun a b -> compare_keys keys.(a) keys.(b)) by_key;
      Array.iteri
        (fun i a ->
          if i > 0 && compare_keys keys.(by_key.(i - 1)) keys.(a) <> 0 then
            incr fresh;
          next.(members.(a)) <- !fresh)
        by_key
    end
    else next.(cells.(lo)) <- !fresh;
    incr fresh
  done;
  { color = next; classes = !fresh }

(* Refine until stable.  Each round's key includes the previous colour,
   so the partition only ever splits — at most n rounds; the budget
   guards the total work across individualization branches. *)
let rec refine state colors budget =
  decr budget;
  if !budget < 0 then raise Fallback;
  let next = refine_round state colors in
  if next.classes = colors.classes then next else refine state next budget

(* Give [m] its own colour, just below the rest of its cell. *)
let individualize { color; classes } m =
  let t = color.(m) in
  {
    color =
      Array.mapi
        (fun p c -> if c > t || (c = t && p <> m) then c + 1 else c)
        color;
    classes = classes + 1;
  }

(* positions sorted by colour; discrete colouring makes this a total
   order *)
let order_of_colors colors =
  let order = Array.make (Array.length colors) 0 in
  Array.iteri (fun p c -> order.(c) <- p) colors;
  order

let render state order =
  let n = Array.length order in
  let inv = Array.make n 0 in
  Array.iteri (fun ci p -> inv.(p) <- ci) order;
  let buf = Buffer.create 256 in
  let add_int i = Buffer.add_string buf (string_of_int i) in
  Array.iteri
    (fun ci p ->
      Buffer.add_char buf 'n';
      add_int ci;
      Buffer.add_char buf ':';
      Buffer.add_string buf state.sigs.(p);
      Buffer.add_char buf '\n')
    order;
  (* (src index, src port, dst index, dst port) in lexicographic order,
     packed in radices [n] and [ports] *)
  let ports = state.ports in
  let packed =
    Array.map
      (fun (s, sp, d, dp) -> (((((inv.(s) * ports) + sp) * n) + inv.(d)) * ports) + dp)
      state.edges
  in
  Array.sort Int.compare packed;
  Array.iter
    (fun k ->
      let dp = k mod ports and k = k / ports in
      let d = k mod n and k = k / n in
      let sp = k mod ports and s = k / ports in
      Buffer.add_char buf 'e';
      add_int s;
      Buffer.add_char buf '.';
      add_int sp;
      Buffer.add_string buf "->";
      add_int d;
      Buffer.add_char buf '.';
      add_int dp;
      Buffer.add_char buf '\n')
    packed;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The search tree.  A node individualises one member of the lowest
   ambiguous colour class and refines; a leaf is a discrete colouring,
   and the canonical form is the smallest rendering over all leaves, the
   first one found on ties.  Every choice above is label-free, so an
   automorphism of the network that fixes a node's individualised
   prefix maps the subtree under one member of the node's target class
   onto the subtree under its image, leaf for leaf with equal
   renderings.  Two leaves that render equal exhibit such an
   automorphism, position by position; the search records it and
   explores one member per orbit of the recorded automorphisms that fix
   the prefix (McKay & Piperno, "Practical graph isomorphism, II").  A
   skipped subtree renders only strings an explored one already
   rendered, and first, so the result is the one full enumeration
   gives. *)

type leaf = { text : string; order : int array; path : int array }

type search = {
  state : state;
  budget : int ref;
  mutable leaves : int;
  mutable found : (leaf * leaf) option;  (* the first leaf, the best *)
  mutable autos : int array list;  (* newest first *)
  mutable n_autos : int;
}

(* Raised at a leaf that shows the subtree under the [depth]-th choice
   of its path to be an image of the first leaf's, already explored. *)
exception Backjump of int

let record s (a : leaf) (b : leaf) =
  let gamma = Array.make (Array.length a.order) 0 in
  Array.iteri (fun c p -> gamma.(p) <- b.order.(c)) a.order;
  s.autos <- gamma :: s.autos;
  s.n_autos <- s.n_autos + 1;
  gamma

let at_leaf s path colors =
  s.leaves <- s.leaves + 1;
  let order = order_of_colors colors in
  let l = { text = render s.state order; order; path } in
  match s.found with
  | None -> s.found <- Some (l, l)
  | Some (f, b) ->
    if String.equal l.text f.text then begin
      (* [gamma] maps the first leaf onto this one; where the paths part,
         it maps the first path's subtree onto this path's *)
      let gamma = record s f l in
      let depth = ref 0 in
      while f.path.(!depth) = path.(!depth) do incr depth done;
      let fixes = ref (gamma.(f.path.(!depth)) = path.(!depth)) in
      for i = 0 to !depth - 1 do
        if gamma.(path.(i)) <> path.(i) then fixes := false
      done;
      if !fixes then raise (Backjump !depth)
    end
    else
      match String.compare l.text b.text with
      | 0 -> ignore (record s b l)
      | c when c < 0 -> s.found <- Some (f, l)
      | _ -> ()

let rec find uf p = if uf.(p) = p then p else find uf uf.(p)

let rec explore s path colors =
  let colors = refine s.state colors s.budget in
  let n = Array.length colors.color in
  if colors.classes = n then at_leaf s path colors.color
  else begin
    let counts = Array.make n 0 in
    Array.iter (fun c -> counts.(c) <- counts.(c) + 1) colors.color;
    let target = ref 0 in
    while counts.(!target) < 2 do incr target done;
    let members = ref [] in
    for p = n - 1 downto 0 do
      if colors.color.(p) = !target then members := p :: !members
    done;
    let depth = Array.length path in
    (* orbits of the target class under the recorded automorphisms that
       fix [path]; those preserve this node's colouring, so the class
       maps onto itself *)
    let uf = Array.init n Fun.id in
    let absorbed = ref 0 in
    let rec absorb fresh autos =
      match autos with
      | gamma :: older when fresh > 0 ->
        if Array.for_all (fun v -> gamma.(v) = v) path then
          List.iter
            (fun m ->
              let a = find uf m and b = find uf gamma.(m) in
              if a <> b then uf.(max a b) <- min a b)
            !members;
        absorb (fresh - 1) older
      | _ -> absorbed := s.n_autos
    in
    let explored = ref [] in
    List.iter
      (fun m ->
        absorb (s.n_autos - !absorbed) s.autos;
        let orbit = find uf m in
        if not (List.exists (fun e -> find uf e = orbit) !explored) then begin
          explored := m :: !explored;
          try explore s (Array.append path [| m |]) (individualize colors m)
          with Backjump d when d = depth -> ()
        end)
      !members
  end

let refine_budget = 2_000
let max_search_nodes = 512

(* The canonical order, its rendering, and whether it is exact. *)
let canonical_order state =
  let n = Array.length state.ids in
  let fallback () =
    let order = Array.init n Fun.id in
    (order, render state order, false)
  in
  if n > max_search_nodes then fallback ()
  else
    let s =
      {
        state;
        budget = ref refine_budget;
        leaves = 0;
        found = None;
        autos = [];
        n_autos = 0;
      }
    in
    let result =
      match explore s [||] (initial_coloring state) with
      | () -> (
        match s.found with
        | Some (_, best) -> (best.order, best.text, true)
        | None -> assert false)
      | exception Fallback -> fallback ()
    in
    Obs.Metrics.add m_refine_rounds (refine_budget - max 0 !(s.budget));
    Obs.Metrics.add m_leaves s.leaves;
    result

let of_graph g =
  let state = build g in
  let order, rendered, exact = canonical_order state in
  let n = Array.length order in
  let ids = Array.map (fun p -> state.ids.(p)) order in
  let index = Hashtbl.create (max 16 n) in
  Array.iteri (fun ci id -> Hashtbl.replace index id ci) ids;
  {
    order = ids;
    index;
    rendered;
    digest = Digest.to_hex (Digest.string rendered);
    exact;
  }

let digest t = t.digest
let size (t : t) = Array.length t.order
let exact t = t.exact
let index_of t id = Hashtbl.find t.index id
let id_of (t : t) i = t.order.(i)

let labels_digest g =
  Digest.to_hex (Digest.string (Netlist.Textio.to_string g))
