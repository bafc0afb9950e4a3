(* Seeded workload generation: each workload's Click configuration, its
   frames, and every frame's expected fate.

   Fates are computed here with the benchmark's own tools only: a naive
   longest-prefix match over the generated route array (one hash table
   per prefix length), an offset/value/mask evaluator for the cascade's
   stages, and an IP header checksum written from RFC 1071. Nothing here
   calls the router's classifier, route table or checksum code, so a
   datapath bug cannot hide by agreeing with itself. *)

module Routegen = Oclick_lpm.Routegen

(* Fates, as small ints so that the per-frame check indexes plain arrays. *)
let k_fwd = 0 (* forwarded out [fr_out] to neighbour [fr_gw] *)
let k_ttl = 1 (* TTL 1: ICMP time exceeded back to the sender *)
let k_badsum = 2 (* bad header checksum: dropped by CheckIPHeader *)
let k_redirect = 3 (* egress = ingress: forwarded, plus an ICMP redirect *)
let k_arp = 4 (* ARP request for the router: ARP reply to the sender *)
let k_pass = 5 (* cascade: matches all stages, leaves on eth1 *)
let k_exit = 6 (* cascade: leaves at stage [fr_out] into its Discard *)
let k_churn_live = 7 (* sent to a churn prefix that is live: forwarded by it *)
let k_churn_gone = 8 (* sent to a removed churn prefix: forwarded by the covering route *)

type route = { addr : int; len : int; port : int; gw : int }
(* [port] is the egress interface, or -1 for the router itself; [gw] is a
   neighbour index ([port * nbrs + k]), or -1 when the destination is
   directly connected. *)

type t = {
  name : string;
  config : string;
  nports : int;
  ring : int;  (** frames in the ring; a power of two *)
  tpl : string array;  (** frame bytes, sequence fields zero *)
  kind : int array;
  fr_in : int array;
  fr_out : int array;
  fr_gw : int array;
  fr_src : int array;  (** the sender's neighbour index *)
  fr_dst : int array;
      (** a churn frame's destination and, if live, its egress and
          neighbour are set at injection (Rig.inject) *)
  routes : route array;  (** the whole table, interface routes first *)
  stages : (int * string * string) array;  (** cascade: offset, value, mask *)
  batch : int;
  pool : bool;
  frames_per_update : int;  (** 0 = no route updates *)
}

(* Frames per closed-loop burst, spread across the input ports. *)
let burst = 256

(* The open loop's offered rate. The router loses nothing at this rate
   even through a 10 ms host stall, which the output Queue(200)s
   absorb. *)
let rate_kpps = 50.

(* --- addressing (the Figure 1 router's interfaces, and four neighbour
   hosts per interface) --- *)

let nbrs = 4
let router_ip p = (10 lsl 24) lor (p lsl 8) lor 1
let router_mac p = (0x0000c000 lsl 16) lor (p lsl 8) lor 1
let nb_ip n = (10 lsl 24) lor ((n / nbrs) lsl 8) lor (2 + (n mod nbrs))
let nb_mac n = (0x02000000 lsl 16) lor ((n / nbrs) lsl 8) lor (n mod nbrs)

let ip_to_string a =
  Printf.sprintf "%d.%d.%d.%d" ((a lsr 24) land 255) ((a lsr 16) land 255)
    ((a lsr 8) land 255) (a land 255)

let mac_to_string m =
  String.concat ":"
    (List.init 6 (fun i -> Printf.sprintf "%02x" ((m lsr (40 - (8 * i))) land 255)))

(* --- the reference tools --- *)

let mask len = if len = 0 then 0 else (0xffff_ffff lsl (32 - len)) land 0xffff_ffff

type lpm = (int, route) Hashtbl.t array

(* First declared wins on a duplicate prefix, as in LookupIPRoute's
   config. *)
let lpm_of_routes routes : lpm =
  let h = Array.init 33 (fun _ -> Hashtbl.create 4096) in
  Array.iter
    (fun r -> if not (Hashtbl.mem h.(r.len) r.addr) then Hashtbl.add h.(r.len) r.addr r)
    routes;
  h

let lpm_lookup (h : lpm) dst =
  let rec go len =
    if len < 0 then None
    else
      match Hashtbl.find_opt h.(len) (dst land mask len) with
      | Some r -> Some r
      | None -> go (len - 1)
  in
  go 32

let put_u16 b off v = Bytes.set_uint16_be b off (v land 0xffff)
let put_u32 b off v = Bytes.set_int32_be b off (Int32.of_int (v land 0xffff_ffff))

let put_mac b off m =
  put_u32 b off (m lsr 16);
  put_u16 b (off + 4) m

let fold16 s =
  let s = (s land 0xffff) + (s lsr 16) in
  (s land 0xffff) + (s lsr 16)

(* RFC 1071 over a 20-byte header whose checksum field is zero. *)
let header_checksum b off =
  let s = ref 0 in
  for i = 0 to 9 do
    s := !s + Bytes.get_uint16_be b (off + (2 * i))
  done;
  lnot (fold16 !s) land 0xffff

let stage_matches (get_u8 : int -> int) (off, value, msk) =
  let ok = ref true in
  for j = 0 to String.length value - 1 do
    let m = Char.code msk.[j] in
    if get_u8 (off + j) land m <> Char.code value.[j] land m then ok := false
  done;
  !ok

(* --- frames --- *)

(* Sequence fields, written at injection: the 32-bit sequence number in
   the UDP payload, and again in the UDP ports, which an ICMP error
   quotes. *)
let seq_off = 42

let udp_frame ~len ~dst_mac ~src_mac ~src ~dst ~ttl ~ident =
  let b = Bytes.make len '\000' in
  put_mac b 0 dst_mac;
  put_mac b 6 src_mac;
  put_u16 b 12 0x0800;
  Bytes.set_uint8 b 14 0x45;
  put_u16 b 16 (len - 14);
  put_u16 b 18 ident;
  Bytes.set_uint8 b 22 ttl;
  Bytes.set_uint8 b 23 17;
  put_u32 b 26 src;
  put_u32 b 30 dst;
  put_u16 b 38 (len - 34);
  put_u16 b 24 (header_checksum b 14);
  b

(* An Ethernet ARP frame for IPv4; the Ethernet source is the sender's
   MAC. [op] is 1 for a request, 2 for a reply. *)
let arp_frame ~op ~dst_mac ~sha ~spa ~tha ~tpa =
  let b = Bytes.make 60 '\000' in
  put_mac b 0 dst_mac;
  put_mac b 6 sha;
  put_u16 b 12 0x0806;
  put_u16 b 14 1;
  put_u16 b 16 0x0800;
  Bytes.set_uint8 b 18 6;
  Bytes.set_uint8 b 19 4;
  put_u16 b 20 op;
  put_mac b 22 sha;
  put_u32 b 28 spa;
  put_mac b 32 tha;
  put_u32 b 38 tpa;
  b

let arp_request ~sender ~target_ip =
  arp_frame ~op:1 ~dst_mac:0xffff_ffff_ffff ~sha:(nb_mac sender) ~spa:(nb_ip sender) ~tha:0
    ~tpa:target_ip

(* The header checksum of frame [s] with its destination address
   replaced by [dst]. *)
let checksum_with_dst s dst =
  let sum = ref ((dst lsr 16) + (dst land 0xffff)) in
  for i = 0 to 9 do
    (* words 5, 8 and 9 are the checksum and the destination *)
    if i <> 5 && i < 8 then
      sum := !sum + ((Char.code s.[14 + (2 * i)] lsl 8) lor Char.code s.[15 + (2 * i)])
  done;
  lnot (fold16 !sum) land 0xffff

(* --- route churn: /24 prefixes in 10.128.0.0/9, disjoint from the table --- *)

let fig8_ports = 8
let churn_live = 256
let churn_space = 32768
let churn_net = (10 lsl 24) lor (128 lsl 16)
let churn_addr k = churn_net lor ((k mod churn_space) lsl 8)
let churn_port k = k mod churn_space mod fig8_ports

(* Churn prefix [k] goes through the first neighbour on its port. *)
let churn_prefix k =
  let p = churn_port k in
  ( Printf.sprintf "%s/24" (ip_to_string (churn_addr k)),
    Printf.sprintf "%s %d" (ip_to_string (nb_ip (p * nbrs))) (p + 1) )

(* Update [n] alternates: even adds prefix [n/2 + churn_live], odd
   removes prefix [n/2], so [churn_live] churn prefixes stay live. *)
let churn_update n =
  if n land 1 = 0 then
    let pfx, via = churn_prefix ((n / 2) + churn_live) in
    ("add", pfx ^ " " ^ via)
  else ("remove", fst (churn_prefix (n / 2)))

let churn_initial () =
  List.init churn_live (fun k ->
      let pfx, via = churn_prefix k in
      ("add", pfx ^ " " ^ via))

(* After updates [0, u) the live prefixes are [u/2, u/2 + churn_live)
   (mod [churn_space]). The live target is the middle of that window,
   moved one on if its port is [ingress] (which would make a redirect);
   the gone target is as far below the window. Either keeps its state
   for over a hundred updates on each side of [u], much longer than a
   frame waits in the router. *)
let churn_live_target u ~ingress =
  let k = (u / 2) + (churn_live / 2) in
  if churn_port k = ingress then k + 1 else k

let churn_gone_target u = (u / 2) - (churn_live / 2) + churn_space

(* Replay the update sequence on a set of prefixes and check both
   targets against it, past the point where prefix numbers wrap. *)
let check_churn_targets () =
  let live = Hashtbl.create 1024 in
  let prefix_of v = List.hd (String.split_on_char ' ' v) in
  List.iter (fun (_, v) -> Hashtbl.replace live (prefix_of v) ()) (churn_initial ());
  for u = 0 to (2 * churn_space) + (4 * churn_live) do
    let is_live k = Hashtbl.mem live (fst (churn_prefix k)) in
    if not (is_live (churn_live_target u ~ingress:(u mod fig8_ports))) then
      Util.die "churn: live target not live at update %d" u;
    if is_live (churn_gone_target u) then Util.die "churn: gone target live at update %d" u;
    match churn_update u with
    | "add", v -> Hashtbl.replace live (prefix_of v) ()
    | _, pfx -> Hashtbl.remove live pfx
  done

(* --- fig8: the Figure 1 router with a 100k-route table --- *)

let fig8_routes = 100_000

(* The table: the router's interface routes (as Ip_router.config writes
   them), then Routegen's routes, each sent through one of the four
   neighbours on its port so that eight times four ARP entries cover
   every next hop. *)
let fig8_table st ~seed =
  let iface =
    List.concat
      [
        List.init fig8_ports (fun p -> { addr = router_ip p; len = 32; port = -1; gw = -1 });
        List.init fig8_ports (fun p ->
            { addr = router_ip p land mask 24; len = 24; port = p; gw = -1 });
      ]
  in
  let gen = Routegen.generate ~seed ~n:fig8_routes ~nports:fig8_ports () in
  let table =
    Array.map
      (fun (r : Routegen.route) ->
        { addr = r.addr land mask r.len; len = r.len; port = r.port;
          gw = (r.port * nbrs) + Random.State.int st nbrs })
      gen
  in
  (Array.append (Array.of_list iface) table, gen)

let route_line r = Printf.sprintf "%s/%d %s %d" (ip_to_string r.addr) r.len
    (ip_to_string (nb_ip r.gw)) (r.port + 1)

let fig8_config table =
  let extra =
    Array.to_list
      (Array.map route_line (Array.sub table (2 * fig8_ports) (Array.length table - (2 * fig8_ports))))
  in
  Oclick.Ip_router.config ~extra_routes:extra
    (Oclick.Ip_router.standard_interfaces fig8_ports)

(* Destinations outside 10/8 (the router's own subnets), 0/8, 127/8 and
   class D/E, so that every fast-path frame is forwarded to a neighbour. *)
let usable dst =
  let a = dst lsr 24 in
  a <> 0 && a <> 10 && a <> 127 && a < 224

type mix = { ttl1 : float; badsum : float; redirect : float; arp : float; churn : float }

let no_mix = { ttl1 = 0.; badsum = 0.; redirect = 0.; arp = 0.; churn = 0. }

(* The route the table gives every churn destination once its churn
   prefix is gone. Dies if the table has a route inside 10.128.0.0/9,
   which would make that route differ from address to address. *)
let churn_cover table h =
  Array.iter
    (fun r ->
      if r.len > 9 && r.addr land mask 9 = churn_net then
        Util.die "route %s/%d overlaps the churn prefixes" (ip_to_string r.addr) r.len)
    table;
  match lpm_lookup h churn_net with
  | Some r when r.gw >= 0 -> r
  | _ -> Util.die "churn prefixes have no covering neighbour route"

(* The TTL of every frame the router should forward. *)
let ttl = 64

(* [sizes] are frame lengths with their shares; [mix] the shares of
   frames that leave the fast path, and of frames sent into the churn
   prefixes. *)
let fig8 ~name ~seed ~ring ~sizes ~mix ~frames_per_update =
  let st = Random.State.make [| seed; 8 |] in
  let table, gen = fig8_table st ~seed in
  let h = lpm_of_routes table in
  let probes = Routegen.probe_dsts ~seed:(seed + 1) ~routes:gen ~n:(2 * ring) () in
  let dsts = Array.of_list (List.filter usable (Array.to_list probes)) in
  if Array.length dsts < ring then Util.die "too few usable destinations";
  let cover =
    if mix.churn > 0. then begin
      check_churn_targets ();
      Some (churn_cover table h)
    end
    else None
  in
  let pick_size () =
    let u = Random.State.float st 1. in
    let rec go acc = function
      | [ (len, _) ] -> len
      | (len, share) :: rest -> if u < acc +. share then len else go (acc +. share) rest
      | [] -> 64
    in
    go 0. sizes
  in
  let tpl = Array.make ring "" and kind = Array.make ring k_fwd in
  let fr_in = Array.make ring 0 and fr_out = Array.make ring 0 in
  let fr_gw = Array.make ring 0 and fr_src = Array.make ring 0 in
  let fr_dst = Array.make ring 0 in
  for i = 0 to ring - 1 do
    let dst = dsts.(i) in
    let r =
      match lpm_lookup h dst with
      | Some r when r.gw >= 0 -> r
      | _ -> Util.die "destination %s has no neighbour route" (ip_to_string dst)
    in
    let u = Random.State.float st 1. in
    let k =
      if u < mix.ttl1 then k_ttl
      else if u < mix.ttl1 +. mix.badsum then k_badsum
      else if u < mix.ttl1 +. mix.badsum +. mix.redirect then k_redirect
      else if u < mix.ttl1 +. mix.badsum +. mix.redirect +. mix.arp then k_arp
      else if u < mix.ttl1 +. mix.badsum +. mix.redirect +. mix.arp +. (mix.churn /. 2.) then k_churn_live
      else if u < mix.ttl1 +. mix.badsum +. mix.redirect +. mix.arp +. mix.churn then k_churn_gone
      else k_fwd
    in
    (* A churn frame's destination is chosen at injection, inside
       10.128.0.0/9; the last octet is kept from [dst]. A gone one
       leaves by the covering route, a live one by its churn prefix. *)
    let dst = if k = k_churn_live || k = k_churn_gone then churn_net lor (1 + (dst mod 254)) else dst in
    let r = if k = k_churn_gone then Option.get cover else r in
    let ingress =
      if k = k_redirect then r.port
      else if k = k_churn_live then Random.State.int st fig8_ports
      else (r.port + 1 + Random.State.int st (fig8_ports - 1)) mod fig8_ports
    in
    let src = (ingress * nbrs) + Random.State.int st nbrs in
    let frame =
      if k = k_arp then arp_request ~sender:src ~target_ip:(router_ip ingress)
      else begin
        let b =
          udp_frame ~len:(pick_size ()) ~dst_mac:(router_mac ingress) ~src_mac:(nb_mac src)
            ~src:(nb_ip src) ~dst ~ttl:(if k = k_ttl then 1 else ttl) ~ident:(i land 0xffff)
        in
        if k = k_badsum then put_u16 b 24 (Bytes.get_uint16_be b 24 lxor 0x5a5a);
        b
      end
    in
    tpl.(i) <- Bytes.unsafe_to_string frame;
    kind.(i) <- k;
    fr_in.(i) <- ingress;
    fr_out.(i) <- r.port;
    fr_gw.(i) <- r.gw;
    fr_src.(i) <- src;
    fr_dst.(i) <- dst
  done;
  {
    name; config = fig8_config table; nports = fig8_ports; ring; tpl; kind;
    fr_in; fr_out; fr_gw; fr_src; fr_dst; routes = table;
    stages = [||]; batch = 32; pool = true; frames_per_update;
  }

(* --- cascade12: twelve Classifier stages over different header fields
   of a UDP frame, between eth0 and eth1 --- *)

let hex s = String.init (String.length s / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let cascade_stages =
  [|
    (12, "0800", "ffff") (* ethertype IPv4 *);
    (14, "45", "ff") (* version 4, no options *);
    (15, "00", "fc") (* DSCP 0 *);
    (20, "0000", "3fff") (* not a fragment *);
    (22, "40", "c0") (* TTL 64..127 *);
    (23, "11", "ff") (* UDP *);
    (26, "0a", "ff") (* source in 10/8 *);
    (30, "c6", "ff") (* destination in 198/8 *);
    (34, "1f", "ff") (* source port 0x1f00..0x1fff *);
    (36, "0035", "ffff") (* destination port 53 *);
    (38, "001e", "ffff") (* UDP length 30: a 64-byte frame *);
    (46, "cafe", "ffff") (* payload magic, after the sequence number *);
  |]
  |> Array.map (fun (off, v, m) -> (off, hex v, hex m))

let cascade_exit_share = 0.02

let cascade_config stages =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let to_hex s = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s))) in
  add "// %d Classifier stages between two ports; stage i's misses leave into x<i>.\n"
    (Array.length stages);
  add "pd :: PollDevice(eth0);\nq :: Queue(200);\ntd :: ToDevice(eth1);\n";
  Array.iteri
    (fun i (off, v, m) ->
      let full = String.for_all (fun c -> c = '\255') m in
      add "c%d :: Classifier(%d/%s%s, -);\nc%d [1] -> x%d :: Discard;\n" i off (to_hex v)
        (if full then "" else "%" ^ to_hex m)
        i i)
    stages;
  add "pd";
  Array.iteri (fun i _ -> add " -> c%d" i) stages;
  add " -> q -> td;\n";
  Buffer.contents b

let cascade ~seed ~ring =
  let st = Random.State.make [| seed; 12 |] in
  let nst = Array.length cascade_stages in
  let tpl = Array.make ring "" and kind = Array.make ring k_pass in
  let fr_out = Array.make ring 0 in
  for i = 0 to ring - 1 do
    let b =
      udp_frame ~len:64 ~dst_mac:(router_mac 0) ~src_mac:(nb_mac 0)
        ~src:((10 lsl 24) lor Random.State.int st 0xffffff)
        ~dst:((198 lsl 24) lor Random.State.int st 0xffffff)
        ~ttl ~ident:(Random.State.int st 0x10000)
    in
    put_u16 b 34 (0x1f00 lor Random.State.int st 256);
    put_u16 b 36 53;
    put_u16 b 46 0xcafe;
    (* A stated share leaves at each stage: flip the top bit of the
       stage's first tested byte. *)
    let u = Random.State.float st 1. in
    let s = int_of_float (u /. cascade_exit_share) in
    if s < nst then begin
      let off, _, m = cascade_stages.(s) in
      let bit = ref 0x80 in
      while Char.code m.[0] land !bit = 0 do bit := !bit lsr 1 done;
      Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor !bit)
    end;
    (* The fate comes from evaluating every stage, not from the choice
       above. *)
    let get = Bytes.get_uint8 b in
    let rec first_miss j =
      if j = nst then None
      else if stage_matches get cascade_stages.(j) then first_miss (j + 1)
      else Some j
    in
    (match first_miss 0 with
    | None -> kind.(i) <- k_pass
    | Some j ->
        kind.(i) <- k_exit;
        fr_out.(i) <- j);
    tpl.(i) <- Bytes.unsafe_to_string b
  done;
  {
    name = "cascade12"; config = cascade_config cascade_stages; nports = 2; ring; tpl; kind;
    fr_in = Array.make ring 0; fr_out; fr_gw = Array.make ring 0;
    fr_src = Array.make ring 0; fr_dst = Array.make ring 0; routes = [||]; stages = cascade_stages; batch = 1;
    pool = false; frames_per_update = 0;
  }

let names = [ "fig8-dfz"; "cascade12"; "fig8-churn" ]

let make name ~seed =
  match name with
  | "fig8-dfz" -> fig8 ~name ~seed ~ring:65536 ~sizes:[ (64, 1.) ] ~mix:no_mix ~frames_per_update:0
  | "fig8-churn" ->
      fig8 ~name ~seed ~ring:32768
        ~sizes:[ (64, 0.6); (576, 0.25); (1500, 0.15) ]
        ~mix:{ ttl1 = 0.02; badsum = 0.01; redirect = 0.02; arp = 0.01; churn = 0.02 }
        ~frames_per_update:32
  | "cascade12" -> cascade ~seed ~ring:65536
  | w -> Util.die "unknown workload %S (one of: %s)" w (String.concat ", " names)
