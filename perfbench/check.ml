(* The reference check: every frame the router delivers is matched to
   the frame the benchmark injected (by the sequence number it carries)
   and compared with that frame's fate from Gen. A delivered frame that
   does not match is a mismatch, which fails the run; an expected output
   that never arrives is a lost frame, which counts against fail_frac. *)

module Packet = Oclick_packet.Packet

let bit_fwd = 1 (* the forwarded (or cascade-passed) frame itself *)
let bit_icmp = 2 (* the ICMP error the frame provokes *)

type t = {
  w : Gen.t;
  mask : int;
  fig8 : bool;
  slot_seq : int array;  (** the sequence number last injected into each slot *)
  (* Per slot, the expected egress port, neighbour and destination: from
     Gen, or set at injection for churn frames. *)
  out : int array;
  gw : int array;
  dst : int array;
  pend : int array;  (** outputs still outstanding per slot, as bits *)
  arp_pend : int array;  (** ARP replies outstanding per port *)
  exits : int array;  (** cascade: frames sent to each stage's exit *)
  mutable injected : int;
  mutable delivered : int;
  mutable lost : int;
  mutable bad : int;
  mutable first_bad : string;
  (* Open-loop latency: frame [seq]'s due time is
     [lat_t0 + (seq - lat_seq0) * period]. *)
  mutable lat : Util.samples option;
  mutable lat_t0 : int;
  mutable lat_seq0 : int;
  mutable lat_from : int;
  mutable period_ns : float;
}

let create (w : Gen.t) =
  {
    w; mask = w.ring - 1; fig8 = Array.length w.stages = 0;
    slot_seq = Array.make w.ring (-1); out = Array.copy w.fr_out; gw = Array.copy w.fr_gw;
    dst = Array.copy w.fr_dst; pend = Array.make w.ring 0;
    arp_pend = Array.make w.nports 0; exits = Array.make (Array.length w.stages) 0;
    injected = 0; delivered = 0; lost = 0; bad = 0; first_bad = "";
    lat = None; lat_t0 = 0; lat_seq0 = 0; lat_from = max_int; period_ns = 0.;
  }

let popcount2 b = (b land 1) + ((b lsr 1) land 1)

let outputs_of kind =
  if kind = Gen.k_fwd || kind = Gen.k_pass || kind = Gen.k_churn_live || kind = Gen.k_churn_gone
  then bit_fwd
  else if kind = Gen.k_ttl then bit_icmp
  else if kind = Gen.k_redirect then bit_fwd lor bit_icmp
  else 0

(* Register frame [seq] as injected. A slot still holding outputs from
   [ring] frames ago means those outputs were lost. *)
let expect c seq =
  let slot = seq land c.mask in
  let old = c.pend.(slot) in
  if old <> 0 then c.lost <- c.lost + popcount2 old;
  c.slot_seq.(slot) <- seq;
  let kind = c.w.kind.(slot) in
  c.pend.(slot) <- outputs_of kind;
  if kind = Gen.k_arp then c.arp_pend.(c.w.fr_in.(slot)) <- c.arp_pend.(c.w.fr_in.(slot)) + 1
  else if kind = Gen.k_exit then c.exits.(c.w.fr_out.(slot)) <- c.exits.(c.w.fr_out.(slot)) + 1;
  c.injected <- c.injected + 1

(* The fate of a churn frame, chosen at its injection. *)
let route c slot ~dst ~port ~gw =
  c.dst.(slot) <- dst;
  c.out.(slot) <- port;
  c.gw.(slot) <- gw

(* Everything still outstanding is lost. Call once the router is idle
   and drained. *)
let sweep c =
  Array.iteri
    (fun i b ->
      if b <> 0 then begin
        c.lost <- c.lost + popcount2 b;
        c.pend.(i) <- 0
      end)
    c.pend;
  Array.iteri
    (fun e n ->
      c.lost <- c.lost + n;
      c.arp_pend.(e) <- 0)
    c.arp_pend

let fail c fmt =
  Printf.ksprintf
    (fun s ->
      if c.bad = 0 then c.first_bad <- s;
      c.bad <- c.bad + 1)
    fmt

let mac p off = (Packet.get_u32 p off lsl 16) lor Packet.get_u16 p (off + 4)

let header_ok p off =
  let s = ref 0 in
  for i = 0 to 9 do
    s := !s + Packet.get_u16 p (off + (2 * i))
  done;
  Gen.fold16 !s = 0xffff

let record_latency c seq now =
  match c.lat with
  | Some s when seq >= c.lat_from ->
      let due = c.lat_t0 + int_of_float (float_of_int (seq - c.lat_seq0) *. c.period_ns) in
      Util.add s (now - due)
  | _ -> ()

(* Claim output [bit] of frame [seq]: its slot, or [None] when that
   output is not outstanding (another frame's, or already seen). *)
let claim c seq bit =
  let slot = seq land c.mask in
  if c.slot_seq.(slot) <> seq then None
  else if c.pend.(slot) land bit = 0 then None
  else begin
    c.pend.(slot) <- c.pend.(slot) land lnot bit;
    Some slot
  end

let check_udp c e p now =
  let seq = Packet.get_u32 p Gen.seq_off in
  match claim c seq bit_fwd with
  | None -> fail c "port %d: frame seq %d was not expected here (or arrived twice)" e seq
  | Some slot ->
      let w = c.w in
      let tpl = w.tpl.(slot) in
      if c.fig8 then begin
        let gw = c.gw.(slot) in
        if e <> c.out.(slot) then
          fail c "frame seq %d (dst %s) left port %d, expected port %d" seq
            (Gen.ip_to_string c.dst.(slot)) e c.out.(slot)
        else if Packet.length p <> String.length tpl then
          fail c "frame seq %d: length %d, expected %d" seq (Packet.length p) (String.length tpl)
        else if mac p 0 <> Gen.nb_mac gw then
          fail c "frame seq %d: dst MAC %s, expected neighbour %s" seq
            (Gen.mac_to_string (mac p 0)) (Gen.mac_to_string (Gen.nb_mac gw))
        else if mac p 6 <> Gen.router_mac e then fail c "frame seq %d: wrong src MAC" seq
        else if Packet.get_u8 p 22 <> Gen.ttl - 1 then
          fail c "frame seq %d: TTL %d, expected %d" seq (Packet.get_u8 p 22) (Gen.ttl - 1)
        else if not (header_ok p 14) then fail c "frame seq %d: bad IP header checksum" seq
        else if Packet.get_u32 p 30 <> c.dst.(slot) then fail c "frame seq %d: dst IP changed" seq
        else begin
          c.delivered <- c.delivered + 1;
          record_latency c seq now
        end
      end
      else begin
        (* Cascade: the frame leaves eth1 exactly as it was sent. *)
        let n = String.length tpl in
        let same = ref (e = 1 && Packet.length p = n) in
        let i = ref 0 in
        while !same && !i < n do
          if (!i < Gen.seq_off || !i >= Gen.seq_off + 4)
             && Packet.get_u8 p !i <> Char.code (String.unsafe_get tpl !i)
          then same := false;
          incr i
        done;
        if not !same then fail c "frame seq %d: left port %d altered or on the wrong port" seq e
        else begin
          c.delivered <- c.delivered + 1;
          record_latency c seq now
        end
      end

let check_icmp c e p now =
  let typ = Packet.get_u8 p 34 in
  (* The error quotes the frame's IP header and its UDP ports, which
     carry the sequence number. *)
  let seq = (Packet.get_u16 p 62 lsl 16) lor Packet.get_u16 p 64 in
  match claim c seq bit_icmp with
  | None -> fail c "port %d: ICMP type %d about seq %d was not expected" e typ seq
  | Some slot ->
      let w = c.w in
      let src = w.fr_src.(slot) in
      let want = if w.kind.(slot) = Gen.k_ttl then 11 else 5 in
      if typ <> want then fail c "frame seq %d: ICMP type %d, expected %d" seq typ want
      else if e <> w.fr_in.(slot) then fail c "ICMP about seq %d left port %d, expected %d" seq e w.fr_in.(slot)
      else if mac p 0 <> Gen.nb_mac src then fail c "ICMP about seq %d: wrong dst MAC" seq
      else if Packet.get_u32 p 30 <> Gen.nb_ip src then fail c "ICMP about seq %d: wrong dst IP" seq
      else if not (header_ok p 14) then fail c "ICMP about seq %d: bad IP header checksum" seq
      else begin
        c.delivered <- c.delivered + 1;
        record_latency c seq now
      end

let check_arp c e p =
  let tip = Packet.get_u32 p 38 in
  let sender = ((tip lsr 8) land 255 * Gen.nbrs) + (tip land 255) - 2 in
  if Packet.get_u16 p 20 <> 2 then fail c "port %d: ARP frame that is not a reply" e
  else if Packet.get_u32 p 28 <> Gen.router_ip e || mac p 22 <> Gen.router_mac e then
    fail c "port %d: ARP reply not from this port's address" e
  else if sender < e * Gen.nbrs || sender >= (e + 1) * Gen.nbrs || Gen.nb_ip sender <> tip then
    fail c "port %d: ARP reply to %s, not a neighbour on this port" e (Gen.ip_to_string tip)
  else if mac p 0 <> Gen.nb_mac sender || mac p 32 <> Gen.nb_mac sender then
    fail c "port %d: ARP reply to the wrong MAC" e
  else if c.arp_pend.(e) = 0 then fail c "port %d: unexpected ARP reply" e
  else begin
    c.arp_pend.(e) <- c.arp_pend.(e) - 1;
    c.delivered <- c.delivered + 1
  end

let frame c e p now =
  if Packet.length p < 42 then fail c "port %d: runt frame of %d bytes" e (Packet.length p)
  else
    match Packet.get_u16 p 12 with
    | 0x0800 when Packet.get_u8 p 23 = 17 && Packet.length p >= Gen.seq_off + 4 -> check_udp c e p now
    | 0x0800 when c.fig8 && Packet.get_u8 p 23 = 1 && Packet.length p >= 66 -> check_icmp c e p now
    | 0x0806 when c.fig8 -> check_arp c e p
    | et -> fail c "port %d: unexpected frame, ethertype %04x" e et
