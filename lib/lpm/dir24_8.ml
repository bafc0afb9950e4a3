(* DIR-24-8 compressed multibit trie (Gupta/Lin/McKeown 1998, DPDK
   rte_lpm lineage). Stage 1 is a flat [2^stride1] int32 Bigarray; longer
   prefixes chain through 256-entry leaf blocks carved out of one
   growable int32 Bigarray slab. Both live off the OCaml heap: a
   million-route table costs the GC nothing.

   Entry encoding (31 bits, so it round-trips through int32 on 64-bit):
     0                                  empty
     bit 30 set                         leaf pointer; low 24 bits = block id
     otherwise                          terminal: bits 21..26 = owning
                                        prefix len, low 21 bits = nh + 1
   Storing the owning prefix length in every slot is what makes
   incremental add/remove cheap: an insert only overwrites slots whose
   owner is a shorter prefix, a remove repaints exactly its own slots
   with the next-best covering route. No rebuilds, ever. *)

open Bigarray

type slab = (int32, int32_elt, c_layout) Array1.t

let leaf_bit = 0x4000_0000
let block_mask = 0xff_ffff
let nh_mask = 0x1f_ffff
let max_nh = nh_mask - 1 (* nh stored as nh+1, so the top handle is reserved *)

let encode_terminal ~len ~nh = (len lsl 21) lor (nh + 1)
let decoded_len v = if v = 0 then -1 else (v lsr 21) land 0x3f
let is_leaf v = v land leaf_bit <> 0
let block_of v = v land block_mask

type t = {
  stride1 : int;
  shift1 : int; (* 32 - stride1 *)
  tbl1 : slab;
  mutable blocks : slab; (* nblocks * 256 entries *)
  mutable nblocks : int; (* ever-allocated blocks, including freed *)
  mutable free_blocks : int list;
  mutable live_blocks : int;
  (* Next-hop store: parallel int arrays indexed by handle. *)
  mutable nh_gw : int array;
  mutable nh_port : int array;
  mutable nh_used : int;
  mutable free_nh : int list;
  (* The route set itself, keyed (len lsl 32) lor addr -> nh handle.
     Source of truth for duplicate detection and covering-route search. *)
  routes : (int, int) Hashtbl.t;
  mutable nroutes : int;
  (* lookup_batch scratch: leaf-chases deferred from pass 1. *)
  mutable scratch_idx : int array;
  mutable scratch_ent : int array;
}

let create ?(stride1 = 24) () =
  if stride1 <> 24 && stride1 <> 16 && stride1 <> 8 then
    invalid_arg "Dir24_8.create: stride1 must be 8, 16 or 24";
  let tbl1 = Array1.create int32 c_layout (1 lsl stride1) in
  Array1.fill tbl1 0l;
  {
    stride1;
    shift1 = 32 - stride1;
    tbl1;
    blocks = Array1.create int32 c_layout 0;
    nblocks = 0;
    free_blocks = [];
    live_blocks = 0;
    nh_gw = Array.make 16 0;
    nh_port = Array.make 16 0;
    nh_used = 0;
    free_nh = [];
    routes = Hashtbl.create 256;
    nroutes = 0;
    scratch_idx = Array.make 64 0;
    scratch_ent = Array.make 64 0;
  }

let stride1 t = t.stride1
let nroutes t = t.nroutes
let leaf_blocks t = t.live_blocks

let memory_bytes t =
  ((Array1.dim t.tbl1 + Array1.dim t.blocks) * 4)
  + ((Array.length t.nh_gw + Array.length t.nh_port) * 8)

let route_key ~addr ~len = (len lsl 32) lor addr

let mask_addr addr len =
  if len = 0 then 0
  else addr land (0xffff_ffff lsl (32 - len)) land 0xffff_ffff

(* --- next-hop store --- *)

let alloc_nh t ~gw ~port =
  match t.free_nh with
  | h :: rest ->
    t.free_nh <- rest;
    t.nh_gw.(h) <- gw;
    t.nh_port.(h) <- port;
    h
  | [] ->
    if t.nh_used > max_nh then
      invalid_arg "Dir24_8.add: table full (2^21-2 routes)";
    if t.nh_used = Array.length t.nh_gw then begin
      let cap = 2 * Array.length t.nh_gw in
      let gw' = Array.make cap 0 and port' = Array.make cap 0 in
      Array.blit t.nh_gw 0 gw' 0 t.nh_used;
      Array.blit t.nh_port 0 port' 0 t.nh_used;
      t.nh_gw <- gw';
      t.nh_port <- port'
    end;
    let h = t.nh_used in
    t.nh_used <- t.nh_used + 1;
    t.nh_gw.(h) <- gw;
    t.nh_port.(h) <- port;
    h

let free_nh t h = t.free_nh <- h :: t.free_nh
let gw t h = t.nh_gw.(h)
let port t h = t.nh_port.(h)

(* --- leaf-block slab --- *)

let bget t b j = Int32.to_int (Array1.get t.blocks ((b * 256) + j))
let bset t b j x = Array1.set t.blocks ((b * 256) + j) (Int32.of_int x)

let alloc_block t ~fill =
  let id =
    match t.free_blocks with
    | h :: rest ->
      t.free_blocks <- rest;
      h
    | [] ->
      if t.nblocks * 256 = Array1.dim t.blocks then begin
        let cap = max 1024 (2 * Array1.dim t.blocks) in
        let b = Array1.create int32 c_layout cap in
        Array1.blit t.blocks (Array1.sub b 0 (Array1.dim t.blocks));
        t.blocks <- b
      end;
      let id = t.nblocks in
      t.nblocks <- t.nblocks + 1;
      id
  in
  Array1.fill (Array1.sub t.blocks (id * 256) 256) (Int32.of_int fill);
  t.live_blocks <- t.live_blocks + 1;
  id

let free_block t id =
  t.free_blocks <- id :: t.free_blocks;
  t.live_blocks <- t.live_blocks - 1

(* --- insert ---

   Both recursions below work over a level: [lvl] names the level's slot
   array — [stage1] for tbl1, else a 256-entry leaf block id — [base] is
   the number of address bits consumed before this level, [bits] the bits
   this level indexes. A span of slots is a direct loop over the level's
   slab (no per-slot closure): a short prefix paints up to 2^24 stage-1
   slots. *)

let stage1 = -1

(* The level's slab and the index of its slot 0. Only [alloc_block]
   reallocates [t.blocks], so a span loop that never allocates a block
   may keep the pair for its whole run. *)
let level t lvl = if lvl = stage1 then (t.tbl1, 0) else (t.blocks, lvl * 256)

let lget t lvl i =
  let slots, o = level t lvl in
  Int32.to_int (Array1.get slots (o + i))

let lset t lvl i x =
  let slots, o = level t lvl in
  Array1.set slots (o + i) (Int32.of_int x)

(* Overwrite every slot whose owner is a strictly shorter prefix than
   [len], across the whole block [b] and any blocks nested under it.
   Used when an inserted route's range swallows a leaf pointer whole. *)
let rec paint_all_block t b ~len ~value =
  for j = 0 to 255 do
    let v = bget t b j in
    if is_leaf v then paint_all_block t (block_of v) ~len ~value
    else if decoded_len v < len then bset t b j value
  done

let rec paint t ~lvl ~base ~bits ~addr ~len ~value =
  if len <= base + bits then begin
    (* The route's range spans 2^(base+bits-len) whole slots here. *)
    let lo = (addr lsr (32 - base - bits)) land ((1 lsl bits) - 1) in
    let n = 1 lsl (base + bits - len) in
    let slots, o = level t lvl in
    let x = Int32.of_int value in
    for i = o + lo to o + lo + n - 1 do
      let v = Int32.to_int (Array1.get slots i) in
      if is_leaf v then paint_all_block t (block_of v) ~len ~value
      else if decoded_len v < len then Array1.set slots i x
    done
  end
  else begin
    (* Longer than this level resolves: descend into (or create) the one
       leaf block on the path. A displaced terminal becomes the new
       block's fill so its covered range keeps resolving to it. *)
    let i = (addr lsr (32 - base - bits)) land ((1 lsl bits) - 1) in
    let v = lget t lvl i in
    let b =
      if is_leaf v then block_of v
      else begin
        let b = alloc_block t ~fill:v in
        lset t lvl i (leaf_bit lor b);
        b
      end
    in
    paint t ~lvl:b ~base:(base + bits) ~bits:8 ~addr ~len ~value
  end

let add t ~addr ~len ~gw ~port =
  if len < 0 || len > 32 then invalid_arg "Dir24_8.add: len outside 0..32";
  if port < 0 then invalid_arg "Dir24_8.add: negative port";
  let addr = mask_addr addr len in
  let key = route_key ~addr ~len in
  if Hashtbl.mem t.routes key then `Duplicate
  else begin
    let nh = alloc_nh t ~gw ~port in
    Hashtbl.add t.routes key nh;
    t.nroutes <- t.nroutes + 1;
    paint t ~lvl:stage1 ~base:0 ~bits:t.stride1 ~addr ~len
      ~value:(encode_terminal ~len ~nh);
    `Added
  end

(* --- remove --- *)

(* Longest proper covering route of addr/len, as a terminal encoding
   (0 if none): scan len-1 down to 0 against the route set. *)
let covering_value t ~addr ~len =
  let rec go l =
    if l < 0 then 0
    else
      let a = mask_addr addr l in
      match Hashtbl.find_opt t.routes (route_key ~addr:a ~len:l) with
      | Some nh -> encode_terminal ~len:l ~nh
      | None -> go (l - 1)
  in
  go (len - 1)

(* Repaint slots owned by exactly [len] with [value], across block [b]
   and nested blocks; fold uniform all-terminal child blocks back into
   their parent slot as we return. *)
let rec unpaint_all_block t b ~len ~value =
  for j = 0 to 255 do
    let v = bget t b j in
    if is_leaf v then begin
      let bb = block_of v in
      unpaint_all_block t bb ~len ~value;
      try_fold t ~lvl:b ~i:j ~b:bb
    end
    else if v <> 0 && decoded_len v = len then bset t b j value
  done

(* Fold block [b], the child of slot [i] of level [lvl], back into that
   slot when its 256 entries are one and the same terminal. *)
and try_fold t ~lvl ~i ~b =
  let first = bget t b 0 in
  if not (is_leaf first) then begin
    let uniform = ref true in
    let j = ref 1 in
    while !uniform && !j < 256 do
      if bget t b !j <> first then uniform := false;
      incr j
    done;
    if !uniform then begin
      lset t lvl i first;
      free_block t b
    end
  end

let rec unpaint t ~lvl ~base ~bits ~addr ~len ~value =
  if len <= base + bits then begin
    let lo = (addr lsr (32 - base - bits)) land ((1 lsl bits) - 1) in
    let n = 1 lsl (base + bits - len) in
    let slots, o = level t lvl in
    let x = Int32.of_int value in
    for i = o + lo to o + lo + n - 1 do
      let v = Int32.to_int (Array1.get slots i) in
      if is_leaf v then begin
        let b = block_of v in
        unpaint_all_block t b ~len ~value;
        try_fold t ~lvl ~i:(i - o) ~b
      end
      else if v <> 0 && decoded_len v = len then Array1.set slots i x
    done
  end
  else begin
    let i = (addr lsr (32 - base - bits)) land ((1 lsl bits) - 1) in
    let v = lget t lvl i in
    if is_leaf v then begin
      let b = block_of v in
      unpaint t ~lvl:b ~base:(base + bits) ~bits:8 ~addr ~len ~value;
      try_fold t ~lvl ~i ~b
    end
    (* A terminal here means the route's slots were never materialised at
       this depth — impossible for a live route, so nothing to undo. *)
  end

let remove t ~addr ~len =
  if len < 0 || len > 32 then false
  else
    let addr = mask_addr addr len in
    let key = route_key ~addr ~len in
    match Hashtbl.find_opt t.routes key with
    | None -> false
    | Some nh ->
      Hashtbl.remove t.routes key;
      t.nroutes <- t.nroutes - 1;
      let value = covering_value t ~addr ~len in
      unpaint t ~lvl:stage1 ~base:0 ~bits:t.stride1 ~addr ~len ~value;
      free_nh t nh;
      true

let iter_routes t f =
  Hashtbl.iter
    (fun key nh ->
      f ~addr:(key land 0xffff_ffff) ~len:(key lsr 32) ~gw:t.nh_gw.(nh)
        ~port:t.nh_port.(nh))
    t.routes

(* --- lookup --- *)

(* Packed result: (touches lsl 24) lor (nh + 1); low bits 0 on a miss. *)
let result_found r = r land block_mask <> 0
let result_nh r = (r land block_mask) - 1
let result_touches r = r lsr 24

let lookup t dst =
  let v = ref (Int32.to_int (Array1.get t.tbl1 (dst lsr t.shift1))) in
  let shift = ref t.shift1 in
  let touches = ref 1 in
  while is_leaf !v do
    shift := !shift - 8;
    v := bget t (block_of !v) ((dst lsr !shift) land 0xff);
    incr touches
  done;
  (!touches lsl 24) lor (!v land nh_mask)

let lookup_batch t dsts out n =
  if Array.length t.scratch_idx < n then begin
    t.scratch_idx <- Array.make n 0;
    t.scratch_ent <- Array.make n 0
  end;
  (* Pass 1: stream every stage-1 read back to back — independent loads
     the CPU overlaps — deferring the (rare) leaf-pointer chases. *)
  let pending = ref 0 in
  let touches = ref n in
  let shift1 = t.shift1 in
  for i = 0 to n - 1 do
    let v = Int32.to_int (Array1.unsafe_get t.tbl1 (dsts.(i) lsr shift1)) in
    if is_leaf v then begin
      t.scratch_idx.(!pending) <- i;
      t.scratch_ent.(!pending) <- v;
      incr pending
    end
    else out.(i) <- (v land nh_mask) - 1
  done;
  (* Pass 2: chase leaf chains only for the deferred entries. *)
  for k = 0 to !pending - 1 do
    let i = t.scratch_idx.(k) in
    let dst = dsts.(i) in
    let v = ref t.scratch_ent.(k) in
    let shift = ref shift1 in
    while is_leaf !v do
      shift := !shift - 8;
      v := bget t (block_of !v) ((dst lsr !shift) land 0xff);
      incr touches
    done;
    out.(i) <- (!v land nh_mask) - 1
  done;
  !touches
