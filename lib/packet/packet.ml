(* Packet buffers (DESIGN.md §10): a recyclable descriptor over an
   off-heap slab slot or a heap [Bytes] buffer. Word accessors are inline
   loads/stores under one range check; bulk fills and copies on a slab
   are the C primitives of "bulk byte operations" below. *)

type anno = {
  mutable paint : int;
  mutable dst_ip : Ipaddr.t;
  mutable fix_ip_src : bool;
  mutable device : int;
  mutable timestamp_ns : int;
  mutable link_type : link_type;
}

and link_type = To_host | Broadcast | Multicast | To_other

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Unsafe fixed-width word loads/stores: compiler primitives compiling to
   single (unaligned-capable) native memory instructions. All bounds
   checking is hoisted to one range check per accessor call; the 16-bit
   primitives are native-endian, converted to network order with a
   register byte swap. *)
external bs_get16u : bigstring -> int -> int = "%caml_bigstring_get16u"
external bs_set16u : bigstring -> int -> int -> unit = "%caml_bigstring_set16u"
external by_get16u : bytes -> int -> int = "%caml_bytes_get16u"
external by_set16u : bytes -> int -> int -> unit = "%caml_bytes_set16u"
external swap16 : int -> int = "%bswap16"

let[@inline] to_be16 v = if Sys.big_endian then v else swap16 v

let empty_big : bigstring =
  Bigarray.(Array1.create char c_layout 0)

let empty_bytes = Bytes.create 0

(* --- buffer arena -------------------------------------------------------

   A pool's packet payloads live in one off-heap slab (a Bigarray char
   array) carved into fixed-size buffers. The GC never traces or moves
   payload bytes; a packet is just a descriptor pointing into the slab.

   The slot free list is a Treiber stack over slot indices, packed with a
   version tag into a single atomic int so concurrent pop/push from
   different domains are ABA-safe. The owning pool's domain is the common
   caller, but [clone] may allocate a slot from — and descriptor
   finalizers may free a slot back to — any domain, which is what makes
   cross-domain packet handoff copy-free: the descriptor crosses the ring,
   the payload bytes never move, and the slot eventually returns to its
   owning arena no matter which pool recycled the descriptor. *)
module Arena = struct
  let idx_bits = 25 (* up to ~33M slots per arena *)
  let idx_mask = (1 lsl idx_bits) - 1

  type t = {
    slab : bigstring;
    buf_size : int;
    nbufs : int;
    next : int array; (* successor slot+1 in the free stack; 0 = end *)
    top : int Atomic.t; (* (version lsl idx_bits) lor (slot+1); low = 0 empty *)
    free_count : int Atomic.t;
  }

  let create ~buf_size ~nbufs =
    if buf_size <= 0 || nbufs <= 0 || nbufs >= idx_mask then
      invalid_arg "Packet.Arena.create";
    let slab = Bigarray.(Array1.create char c_layout (buf_size * nbufs)) in
    let next = Array.init nbufs (fun i -> if i + 1 < nbufs then i + 2 else 0) in
    {
      slab;
      buf_size;
      nbufs;
      next;
      top = Atomic.make 1 (* version 0, head = slot 0 *);
      free_count = Atomic.make nbufs;
    }

  let rec alloc_slot a =
    let cur = Atomic.get a.top in
    let idx1 = cur land idx_mask in
    if idx1 = 0 then -1
    else
      let slot = idx1 - 1 in
      let nxt = a.next.(slot) in
      let ver = ((cur lsr idx_bits) + 1) land idx_mask in
      if Atomic.compare_and_set a.top cur ((ver lsl idx_bits) lor nxt) then begin
        Atomic.decr a.free_count;
        slot
      end
      else alloc_slot a

  let rec free_slot a slot =
    let cur = Atomic.get a.top in
    a.next.(slot) <- cur land idx_mask;
    let ver = ((cur lsr idx_bits) + 1) land idx_mask in
    if Atomic.compare_and_set a.top cur ((ver lsl idx_bits) lor (slot + 1))
    then Atomic.incr a.free_count
    else free_slot a slot

  let free_slots a = Atomic.get a.free_count
end

(* The packet descriptor. Exactly one representation is active:
   - off-heap: [big] is the arena slab, [base] this packet's buffer
     offset within it, [arena] the slot's owner (for freeing);
   - heap fallback: [buf] is a GC-managed Bytes buffer.
   [cap] is the buffer capacity in both cases, and [head]/[len] delimit
   the live data window within the buffer. *)
type t = {
  mutable big : bigstring;
  mutable base : int;
  mutable cap : int;
  mutable buf : bytes;
  mutable off_heap : bool;
  mutable arena : Arena.t option;
  mutable has_fin : bool;
  mutable head : int;
  mutable len : int;
  mutable in_pool : bool;
  mutable id : int;
  anno : anno;
}

(* Packet identities are process-global serial numbers: every packet that
   comes into existence — created, cloned, or reused from a pool — gets a
   fresh one, so a trace can follow an individual packet even when its
   buffer is recycled. The counter is atomic so packets born on different
   domains (the sharded datapath) still get distinct identities. *)
let id_counter = Atomic.make 0

let fresh_id () = Atomic.fetch_and_add id_counter 1 + 1

let fresh_anno () =
  {
    paint = -1;
    dst_ip = 0;
    fix_ip_src = false;
    device = -1;
    timestamp_ns = 0;
    link_type = To_host;
  }

let default_headroom = 34

(* --- bulk byte operations on slab windows -------------------------------

   Every bulk fill or copy that touches a slab goes through one C
   primitive (lib/packet/packet_stubs.c): memset to zero, memcpy from a
   string or bytes, memcpy to bytes, and memmove between (or within)
   bigstrings — so slab packets fill and copy at the same libc speed the
   heap representation gets from [Bytes.fill]/[Bytes.blit].

   Contract: the caller has already validated the range ([check p pos
   len], [Pool.alloc]'s size checks, a window inside its buffer); the
   primitives check nothing, never raise and never allocate. *)

external fill_zero_big :
  bigstring -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "oclick_big_zero_byte" "oclick_big_zero"
[@@noalloc]

external blit_string_to_big :
  string -> (int[@untagged]) -> bigstring -> (int[@untagged]) ->
  (int[@untagged]) -> unit
  = "oclick_blit_to_big_byte" "oclick_blit_to_big"
[@@noalloc]

external blit_bytes_to_big :
  bytes -> (int[@untagged]) -> bigstring -> (int[@untagged]) ->
  (int[@untagged]) -> unit
  = "oclick_blit_to_big_byte" "oclick_blit_to_big"
[@@noalloc]

external blit_big_to_bytes :
  bigstring -> (int[@untagged]) -> bytes -> (int[@untagged]) ->
  (int[@untagged]) -> unit
  = "oclick_blit_big_to_bytes_byte" "oclick_blit_big_to_bytes"
[@@noalloc]

(* Overlap-safe: [grow]'s in-slot shift and a blit within one packet
   copy between overlapping ranges of the same slab. *)
external blit_big_to_big :
  bigstring -> (int[@untagged]) -> bigstring -> (int[@untagged]) ->
  (int[@untagged]) -> unit
  = "oclick_blit_big_to_big_byte" "oclick_blit_big_to_big"
[@@noalloc]

(* --- slot lifecycle ----------------------------------------------------- *)

(* Give an off-heap descriptor's slot back to its owning arena and drop
   to the (empty) heap representation. Safe from any domain. *)
let release_slot p =
  if p.off_heap then begin
    (match p.arena with
    | Some a -> Arena.free_slot a (p.base / a.Arena.buf_size)
    | None -> ());
    p.off_heap <- false;
    p.big <- empty_big;
    p.base <- 0;
    p.arena <- None
  end

(* Descriptors that die unrecycled (dropped on the floor, or still live
   when their pool is abandoned) must not leak their arena slot: a
   one-time finalizer frees the slot if the descriptor is still off-heap
   at collection. Freeing is an atomic push, so it is safe from whichever
   domain runs the GC. Descriptors whose slot was already released (grow
   or realign demoted them to heap Bytes) are off_heap = false and the
   finalizer is a no-op. *)
let slot_finaliser p =
  if p.off_heap then
    match p.arena with
    | Some a -> Arena.free_slot a (p.base / a.Arena.buf_size)
    | None -> ()

let attach_fin p =
  if not p.has_fin then begin
    p.has_fin <- true;
    Gc.finalise slot_finaliser p
  end

(* --- constructors ------------------------------------------------------- *)

let create ?(headroom = default_headroom) ?(tailroom = default_headroom) len =
  if len < 0 || headroom < 0 || tailroom < 0 then invalid_arg "Packet.create";
  let total = headroom + len + tailroom in
  {
    big = empty_big;
    base = 0;
    cap = total;
    buf = Bytes.make total '\000';
    off_heap = false;
    arena = None;
    has_fin = false;
    head = headroom;
    len;
    in_pool = false;
    id = fresh_id ();
    anno = fresh_anno ();
  }

(* One allocation and one payload copy: the buffer is created uninitialized,
   the head/tail scratch regions zeroed, and the payload blitted once. *)
let of_window ?(headroom = default_headroom) ?(tailroom = default_headroom)
    ~len blit_payload =
  if headroom < 0 || tailroom < 0 then invalid_arg "Packet.of_bytes";
  let total = headroom + len + tailroom in
  let buf = Bytes.create total in
  Bytes.fill buf 0 headroom '\000';
  blit_payload buf headroom;
  Bytes.fill buf (headroom + len) tailroom '\000';
  {
    big = empty_big;
    base = 0;
    cap = total;
    buf;
    off_heap = false;
    arena = None;
    has_fin = false;
    head = headroom;
    len;
    in_pool = false;
    id = fresh_id ();
    anno = fresh_anno ();
  }

let of_bytes ?headroom ?tailroom data =
  let len = Bytes.length data in
  of_window ?headroom ?tailroom ~len (fun buf off -> Bytes.blit data 0 buf off len)

let of_string ?headroom ?tailroom s =
  let len = String.length s in
  of_window ?headroom ?tailroom ~len (fun buf off ->
      Bytes.blit_string s 0 buf off len)

let grab ?(headroom = 0) data =
  if headroom < 0 || headroom > Bytes.length data then invalid_arg "Packet.grab";
  {
    big = empty_big;
    base = 0;
    cap = Bytes.length data;
    buf = data;
    off_heap = false;
    arena = None;
    has_fin = false;
    head = headroom;
    len = Bytes.length data - headroom;
    in_pool = false;
    id = fresh_id ();
    anno = fresh_anno ();
  }

let length p = p.len
let anno p = p.anno
let id p = p.id
let is_off_heap p = p.off_heap
let headroom p = p.head
let tailroom p = p.cap - p.head - p.len
let data_offset p = if p.off_heap then p.base + p.head else p.head

let clone p =
  let used = p.head + p.len in
  let cloned_anno p = { p.anno with paint = p.anno.paint } in
  if p.off_heap then begin
    (* Prefer a sibling slot in the same arena: descriptor plus one
       slab-to-slab memmove of the used region. [alloc_slot] is safe
       from any domain, so cloning a packet in flight across a ring cut
       needs no coordination with the arena's owning pool. *)
    match p.arena with
    | Some a -> (
        match Arena.alloc_slot a with
        | -1 ->
            (* Arena exhausted: degrade to a heap-Bytes clone. *)
            let buf = Bytes.make p.cap '\000' in
            blit_big_to_bytes p.big p.base buf 0 used;
            {
              big = empty_big;
              base = 0;
              cap = p.cap;
              buf;
              off_heap = false;
              arena = None;
              has_fin = false;
              head = p.head;
              len = p.len;
              in_pool = false;
              id = fresh_id ();
              anno = cloned_anno p;
            }
        | slot ->
            let base = slot * a.Arena.buf_size in
            blit_big_to_big p.big p.base a.Arena.slab base used;
            let q =
              {
                big = a.Arena.slab;
                base;
                cap = a.Arena.buf_size;
                buf = empty_bytes;
                off_heap = true;
                arena = Some a;
                has_fin = false;
                head = p.head;
                len = p.len;
                in_pool = false;
                id = fresh_id ();
                anno = cloned_anno p;
              }
            in
            attach_fin q;
            q)
    | None -> assert false
  end
  else
    {
      big = empty_big;
      base = 0;
      cap = p.cap;
      buf = Bytes.copy p.buf;
      off_heap = false;
      arena = None;
      has_fin = false;
      head = p.head;
      len = p.len;
      in_pool = false;
      id = fresh_id ();
      anno = cloned_anno p;
    }

(* --- window adjustment --------------------------------------------------- *)

let grow p ~extra_head ~extra_tail =
  (* Preserve the data window and add room at both ends: shift within the
     slab buffer when the new layout still fits its capacity, otherwise
     reallocate as heap Bytes (the slab-upgrade path never grows a slot;
     oversized packets demote to the GC'd representation). *)
  let total = extra_head + p.len + extra_tail in
  if p.off_heap && total <= p.cap then begin
    blit_big_to_big p.big (p.base + p.head) p.big (p.base + extra_head) p.len;
    p.head <- extra_head
  end
  else begin
    let buf = Bytes.make total '\000' in
    if p.off_heap then
      blit_big_to_bytes p.big (p.base + p.head) buf extra_head p.len
    else Bytes.blit p.buf p.head buf extra_head p.len;
    release_slot p;
    p.buf <- buf;
    p.cap <- total;
    p.head <- extra_head
  end

let push p n =
  if n < 0 then invalid_arg "Packet.push";
  if n > p.head then grow p ~extra_head:(n + default_headroom) ~extra_tail:(tailroom p);
  p.head <- p.head - n;
  p.len <- p.len + n

let pull p n =
  if n < 0 || n > p.len then invalid_arg "Packet.pull";
  p.head <- p.head + n;
  p.len <- p.len - n

let put p n =
  if n < 0 then invalid_arg "Packet.put";
  if n > tailroom p then grow p ~extra_head:p.head ~extra_tail:(n + default_headroom);
  if p.off_heap then fill_zero_big p.big (p.base + p.head + p.len) n
  else Bytes.fill p.buf (p.head + p.len) n '\000';
  p.len <- p.len + n

let take p n =
  if n < 0 || n > p.len then invalid_arg "Packet.take";
  p.len <- p.len - n

(* --- data access --------------------------------------------------------- *)

let check p pos width =
  if pos < 0 || pos + width > p.len then
    invalid_arg
      (Printf.sprintf "Packet: access at %d width %d beyond length %d" pos
         width p.len)

let get_u8 p pos =
  check p pos 1;
  if p.off_heap then
    Char.code (Bigarray.Array1.unsafe_get p.big (p.base + p.head + pos))
  else Char.code (Bytes.unsafe_get p.buf (p.head + pos))

let set_u8 p pos v =
  check p pos 1;
  let c = Char.unsafe_chr (v land 0xff) in
  if p.off_heap then Bigarray.Array1.unsafe_set p.big (p.base + p.head + pos) c
  else Bytes.unsafe_set p.buf (p.head + pos) c

let get_u16 p pos =
  check p pos 2;
  if p.off_heap then to_be16 (bs_get16u p.big (p.base + p.head + pos))
  else to_be16 (by_get16u p.buf (p.head + pos))

let set_u16 p pos v =
  check p pos 2;
  if p.off_heap then bs_set16u p.big (p.base + p.head + pos) (to_be16 v)
  else by_set16u p.buf (p.head + pos) (to_be16 v)

let get_u32 p pos =
  check p pos 4;
  if p.off_heap then begin
    let o = p.base + p.head + pos in
    (to_be16 (bs_get16u p.big o) lsl 16) lor to_be16 (bs_get16u p.big (o + 2))
  end
  else begin
    let o = p.head + pos in
    (to_be16 (by_get16u p.buf o) lsl 16) lor to_be16 (by_get16u p.buf (o + 2))
  end

let set_u32 p pos v =
  check p pos 4;
  let hi = to_be16 ((v lsr 16) land 0xffff) and lo = to_be16 (v land 0xffff) in
  if p.off_heap then begin
    let o = p.base + p.head + pos in
    bs_set16u p.big o hi;
    bs_set16u p.big (o + 2) lo
  end
  else begin
    let o = p.head + pos in
    by_set16u p.buf o hi;
    by_set16u p.buf (o + 2) lo
  end

let get_string p ~pos ~len =
  check p pos len;
  if p.off_heap then begin
    let b = Bytes.create len in
    blit_big_to_bytes p.big (p.base + p.head + pos) b 0 len;
    Bytes.unsafe_to_string b
  end
  else Bytes.sub_string p.buf (p.head + pos) len

let set_string p ~pos s =
  check p pos (String.length s);
  if p.off_heap then
    blit_string_to_big s 0 p.big (p.base + p.head + pos) (String.length s)
  else Bytes.blit_string s 0 p.buf (p.head + pos) (String.length s)

let to_string p = get_string p ~pos:0 ~len:p.len

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if len < 0 then invalid_arg "Packet.blit";
  check src src_pos len;
  check dst dst_pos len;
  let so = src.head + src_pos and dof = dst.head + dst_pos in
  match (src.off_heap, dst.off_heap) with
  | true, true -> blit_big_to_big src.big (src.base + so) dst.big (dst.base + dof) len
  | true, false -> blit_big_to_bytes src.big (src.base + so) dst.buf dof len
  | false, true -> blit_bytes_to_big src.buf so dst.big (dst.base + dof) len
  | false, false -> Bytes.blit src.buf so dst.buf dof len

let ones_complement_sum p ~pos ~len =
  check p pos len;
  if p.off_heap then
    Checksum.ones_complement_sum_big p.big ~pos:(p.base + p.head + pos) ~len
  else Checksum.ones_complement_sum p.buf ~pos:(p.head + pos) ~len

let checksum p ~pos ~len =
  check p pos len;
  if p.off_heap then
    Checksum.checksum_big p.big ~pos:(p.base + p.head + pos) ~len
  else Checksum.checksum p.buf ~pos:(p.head + pos) ~len

let alignment p = data_offset p mod 4

let realign p ~modulus ~offset =
  if modulus <= 0 || offset < 0 || offset >= modulus then
    invalid_arg "Packet.realign";
  if data_offset p mod modulus <> offset then begin
    (* Copy into a fresh heap buffer whose head satisfies the constraint
       and keeps the default headroom available. (A slab slot's base
       offset is fixed, so realignment demotes to the Bytes fallback.) *)
    let head = ((default_headroom / modulus) + 1) * modulus + offset in
    let buf = Bytes.make (head + p.len + default_headroom) '\000' in
    if p.off_heap then
      blit_big_to_bytes p.big (p.base + p.head) buf head p.len
    else Bytes.blit p.buf p.head buf head p.len;
    release_slot p;
    p.buf <- buf;
    p.cap <- Bytes.length buf;
    p.head <- head
  end

module Pool = struct
  type packet = t

  type t = {
    free : packet array; (* descriptor free list; [0, nfree) live *)
    mutable nfree : int;
    capacity : int;
    arena : Arena.t option;
    buf_size : int;
    placeholder : packet; (* fills unused [free] cells *)
    mutable owner : int; (* owning domain id; -1 = unclaimed *)
    mutable allocs : int;
    mutable reuses : int;
    mutable recycles : int;
    mutable rejected : int;
    mutable heap_bufs : int;
  }

  type stats = {
    st_allocs : int;
    st_reuses : int;
    st_recycles : int;
    st_rejected : int;
    st_free : int;
    st_slab_free : int;
    st_heap_bufs : int;
  }

  let default_buf_size = 2048

  (* A pool is single-domain-owned: the descriptor free list is a plain
     array stack and [alloc]/[recycle] mutate it without synchronization,
     so a packet recycled by one domain must never be resurrected by
     another. The pool claims the domain that first touches it (normally
     its creator); [detach] hands an untouched pool to whichever domain
     uses it next. The claim is checked with [assert] on every hot-path
     operation, so debug builds catch cross-domain aliasing at the exact
     faulty call while release builds compiled with [-noassert] pay
     nothing. (The *arena slot* free list, by contrast, is lock-free:
     packets recycled into a different domain's pool keep their slot, and
     slots freed by finalizers or clone fallbacks return to the owning
     arena atomically.) *)
  let create ?(capacity = 1024) ?(buf_size = default_buf_size) ?slab_bufs
      ?(slab = true) () =
    if capacity < 0 || buf_size < 16 then invalid_arg "Packet.Pool.create";
    let slab_bufs =
      match slab_bufs with Some n -> n | None -> max capacity 1
    in
    if slab_bufs < 0 || slab_bufs >= Arena.idx_mask then
      invalid_arg "Packet.Pool.create";
    let arena =
      if slab && slab_bufs > 0 then
        Some (Arena.create ~buf_size ~nbufs:slab_bufs)
      else None
    in
    let placeholder = create 0 in
    {
      free = Array.make capacity placeholder;
      nfree = 0;
      capacity;
      arena;
      buf_size;
      placeholder;
      owner = (Domain.self () :> int);
      allocs = 0;
      reuses = 0;
      recycles = 0;
      rejected = 0;
      heap_bufs = 0;
    }

  let detach pool = pool.owner <- -1

  let owned_by_caller pool =
    let self = (Domain.self () :> int) in
    if pool.owner = -1 then pool.owner <- self;
    pool.owner = self

  let reset_anno a =
    a.paint <- -1;
    a.dst_ip <- 0;
    a.fix_ip_src <- false;
    a.device <- -1;
    a.timestamp_ns <- 0;
    a.link_type <- To_host

  (* Re-zero only the data window on reuse — headroom/tailroom are
     scratch space whose contents [push]/[put] manage themselves, exactly
     as for a fresh [create]. Safe because [clone] never shares buffers:
     a recycled packet's storage has no other live referent. *)
  let zero_window p =
    if p.off_heap then fill_zero_big p.big (p.base + p.head) p.len
    else Bytes.fill p.buf p.head p.len '\000'

  let reset p ~headroom ~len =
    p.head <- headroom;
    p.len <- len;
    p.in_pool <- false;
    p.id <- fresh_id ();
    reset_anno p.anno

  (* Point a descriptor at storage of capacity >= need: a slot in this
     pool's arena when the request fits the slab buffer class and a slot
     is free, else a fresh heap Bytes buffer (already zeroed). Returns
     whether the slab path was taken. *)
  let acquire_storage pool p need =
    let slotted =
      need <= pool.buf_size
      &&
      match pool.arena with
      | Some a -> (
          match Arena.alloc_slot a with
          | -1 -> false
          | slot ->
              p.big <- a.Arena.slab;
              p.base <- slot * a.Arena.buf_size;
              p.cap <- a.Arena.buf_size;
              p.buf <- empty_bytes;
              p.off_heap <- true;
              p.arena <- Some a;
              attach_fin p;
              true)
      | None -> false
    in
    if not slotted then begin
      pool.heap_bufs <- pool.heap_bufs + 1;
      p.big <- empty_big;
      p.base <- 0;
      p.buf <- Bytes.make need '\000';
      p.cap <- need;
      p.off_heap <- false;
      p.arena <- None
    end;
    slotted

  let fresh_descriptor () =
    {
      big = empty_big;
      base = 0;
      cap = 0;
      buf = empty_bytes;
      off_heap = false;
      arena = None;
      has_fin = false;
      head = 0;
      len = 0;
      in_pool = false;
      id = fresh_id ();
      anno = fresh_anno ();
    }

  let alloc pool ?(headroom = default_headroom) ?(tailroom = default_headroom)
      len =
    if len < 0 || headroom < 0 || tailroom < 0 then
      invalid_arg "Packet.Pool.alloc";
    assert (owned_by_caller pool);
    let need = headroom + len + tailroom in
    if pool.nfree = 0 then begin
      pool.allocs <- pool.allocs + 1;
      let p = fresh_descriptor () in
      let slotted = acquire_storage pool p need in
      reset p ~headroom ~len;
      if slotted then zero_window p;
      p
    end
    else begin
      pool.nfree <- pool.nfree - 1;
      let p = pool.free.(pool.nfree) in
      pool.free.(pool.nfree) <- pool.placeholder;
      pool.reuses <- pool.reuses + 1;
      if p.cap >= need then begin
        reset p ~headroom ~len;
        zero_window p
      end
      else begin
        (* Too small for this request: swap the storage out. An off-heap
           slot goes back to its owning arena (wherever that is), then
           the descriptor re-acquires from this pool. *)
        release_slot p;
        let slotted = acquire_storage pool p need in
        reset p ~headroom ~len;
        if slotted then zero_window p
      end;
      p
    end

  (* No copy on recycle: the descriptor (slot and all) is pushed onto the
     free list by index; payload bytes stay where they are. A packet that
     crossed domains keeps its foreign arena slot — the slot simply
     circulates through this pool from now on. *)
  let recycle pool p =
    assert (owned_by_caller pool);
    (* Guard against double-recycle: a packet already on the free list is
       left alone, so recycling from both a drop hook and a transmit path
       can never corrupt the pool. *)
    if p.in_pool then pool.rejected <- pool.rejected + 1
    else if pool.nfree < pool.capacity then begin
      p.in_pool <- true;
      pool.recycles <- pool.recycles + 1;
      pool.free.(pool.nfree) <- p;
      pool.nfree <- pool.nfree + 1
    end
    else begin
      (* Pool full: the packet is dead by contract, so its slot can go
         straight back to the arena rather than waiting for the GC
         finalizer to find the descriptor. *)
      release_slot p;
      pool.rejected <- pool.rejected + 1
    end

  let stats pool =
    {
      st_allocs = pool.allocs;
      st_reuses = pool.reuses;
      st_recycles = pool.recycles;
      st_rejected = pool.rejected;
      st_free = pool.nfree;
      st_slab_free =
        (match pool.arena with Some a -> Arena.free_slots a | None -> 0);
      st_heap_bufs = pool.heap_bufs;
    }
end
