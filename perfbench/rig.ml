(* A router under test and the calls the benchmark makes into it: set-up
   from config text, ARP priming, frame injection, running, draining
   and route updates. *)

module Driver = Oclick_runtime.Driver
module Element = Oclick_runtime.Element
module Netdevice = Oclick_runtime.Netdevice
module Packet = Oclick_packet.Packet
module Pool = Packet.Pool
module Router = Oclick_graph.Router

type t = {
  w : Gen.t;
  driver : Driver.t;
  devs : Netdevice.queue_device array;
  pool : Pool.t option;  (** the router's pool *)
  frames : Pool.t;
      (** where injected frames come from and delivered ones go back to:
          the router's pool, or else one of the benchmark's own, so that
          the generator's garbage does not swell the heap of a router
          without a pool *)
  scratch : Packet.t array;
}

type setup_times = { parse_s : float; instantiate_s : float; fuse_s : float }

let total s = s.parse_s +. s.instantiate_s +. s.fuse_s
let pool_capacity = 4096

let ok what = function Ok v -> v | Error e -> Util.die "%s: %s" what e

(* Config text to a router ready for its first frame: parse and
   flatten, instantiate (building the route trie), compile and fuse. *)
let setup ?hooks (w : Gen.t) =
  let devs =
    Array.init w.nports (fun i -> new Netdevice.queue_device (Printf.sprintf "eth%d" i) ())
  in
  let devices = Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs) in
  let pool = if w.pool then Some (Pool.create ~capacity:pool_capacity ()) else None in
  let frames =
    match pool with
    | Some pl -> pl
    | None -> Pool.create ~capacity:pool_capacity ~slab:false ()
  in
  let t0 = Util.now_ns () in
  let graph = ok "parse" (Router.parse_string w.config) in
  let t1 = Util.now_ns () in
  let driver = ok "instantiate" (Driver.instantiate ?hooks ~devices ~batch:w.batch ?pool graph) in
  let t2 = Util.now_ns () in
  ok "compile" (Driver.compile ~fuse:true driver);
  let t3 = Util.now_ns () in
  let s a b = float_of_int (b - a) /. 1e9 in
  ( { w; driver; devs; pool; frames; scratch = Array.make 256 (Packet.create 0) },
    { parse_s = s t0 t1; instantiate_s = s t1 t2; fuse_s = s t2 t3 } )

(* Set up [n] times from the config text and keep the last router; the
   set-up time reported is the median. The previous router is collected
   first, so the peak RSS holds one router. *)
let setups ?hooks w n =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    last := None;
    Gc.full_major ();
    let r, s = setup ?hooks w in
    times := s :: !times;
    last := Some r
  done;
  (Option.get !last, List.rev !times)

(* A cascade set-up takes well under a millisecond, so it is repeated
   more times for a steady median. *)
let setups_per_cycle (w : Gen.t) = if w.Gen.routes <> [||] then 1 else 11

let element r name =
  match Driver.element r.driver name with
  | Some e -> e
  | None -> Util.die "no element %S" name

let elements_of_class r cls =
  List.filter_map
    (fun i ->
      let e = Driver.element_at r.driver i in
      if e#class_name = cls then Some e else None)
    (List.init (Driver.size r.driver) Fun.id)

let stat (e : Element.t) key =
  match e#read_handler key with
  | Some v -> int_of_string (String.trim v)
  | None -> Util.die "%s has no read handler %S" e#name key

let run_idle r = if not (Driver.run_until_idle r.driver) then Util.die "router did not go idle"

(* Teach every ARPQuerier its four neighbours with unsolicited replies,
   so no query is outstanding when measurement starts. *)
let prime r =
  if r.w.routes <> [||] then begin
    for n = 0 to (r.w.nports * Gen.nbrs) - 1 do
      let p = n / Gen.nbrs in
      Gen.arp_frame ~op:2 ~dst_mac:(Gen.router_mac p) ~sha:(Gen.nb_mac n) ~spa:(Gen.nb_ip n)
        ~tha:(Gen.router_mac p) ~tpa:(Gen.router_ip p)
      |> Packet.of_bytes |> r.devs.(p)#inject
    done;
    run_idle r;
    Array.iteri
      (fun i d ->
        match d#collect with
        | Some _ -> Util.die "priming: port %d sent a frame" i
        | None -> ())
      r.devs
  end

(* Route churn through the route element's add/remove handlers. One
   record follows a run across the routers it sets up. *)
type churn = {
  mutable rt : Element.t option;
  mutable next : int;
  times : Util.samples;
  mutable refused : int;
}

let churn () = { rt = None; next = 0; times = Util.samples 65536; refused = 0 }

(* Point [ch] at router [r], loading the live churn prefixes; the
   update sequence restarts with the router's table. *)
let attach_churn ch r =
  if r.w.frames_per_update > 0 then begin
    let rt = element r "rt" in
    List.iter (fun (h, v) -> ok "initial route" (rt#write_handler h v)) (Gen.churn_initial ());
    ch.rt <- Some rt;
    ch.next <- 0
  end

let update ch =
  let h, v = Gen.churn_update ch.next in
  let rt = Option.get ch.rt in
  let t0 = Util.now_ns () in
  let res = rt#write_handler h v in
  Util.add ch.times (Util.now_ns () - t0);
  ch.next <- ch.next + 1;
  match res with Ok () -> () | Error _ -> ch.refused <- ch.refused + 1

(* Inject the next frame of the ring; its sequence number is the count
   of frames injected so far. A churn frame is sent to a prefix that is
   live, or gone, after the [ch.next] updates made so far. *)
let inject r (c : Check.t) ch =
  let w = r.w in
  let seq = c.Check.injected in
  let slot = seq land c.Check.mask in
  let s = w.tpl.(slot) in
  let kind = w.kind.(slot) in
  (* Without a router pool, a frame the router will consume is a fresh
     packet that dies young; one it sends back is recycled on drain. *)
  let p =
    match r.pool with
    | None when Check.outputs_of kind = 0 -> Packet.create (String.length s)
    | _ -> Pool.alloc r.frames (String.length s)
  in
  Packet.set_string p ~pos:0 s;
  if kind <> Gen.k_arp then begin
    Packet.set_u32 p Gen.seq_off seq;
    if c.Check.fig8 then begin
      Packet.set_u16 p 34 (seq lsr 16);
      Packet.set_u16 p 36 (seq land 0xffff)
    end
  end;
  Check.expect c seq;
  if kind = Gen.k_churn_live || kind = Gen.k_churn_gone then begin
    let ingress = w.fr_in.(slot) in
    let k =
      if kind = Gen.k_churn_live then Gen.churn_live_target ch.next ~ingress
      else Gen.churn_gone_target ch.next
    in
    let dst = Gen.churn_addr k lor (w.fr_dst.(slot) land 255) in
    Packet.set_u32 p 30 dst;
    Packet.set_u16 p 24 (Gen.checksum_with_dst s dst);
    if kind = Gen.k_churn_live then
      Check.route c slot ~dst ~port:(Gen.churn_port k) ~gw:(Gen.churn_port k * Gen.nbrs)
    else Check.route c slot ~dst ~port:w.fr_out.(slot) ~gw:w.fr_gw.(slot)
  end;
  r.devs.(w.fr_in.(slot))#inject p

(* Collect and check everything the router transmitted; [now] is the
   arrival time charged to each frame's latency. *)
let drain r c now =
  let buf = r.scratch in
  Array.iteri
    (fun e (d : Netdevice.queue_device) ->
      let rec loop () =
        let n = d#collect_into buf in
        for i = 0 to n - 1 do
          Check.frame c e buf.(i) now;
          Pool.recycle r.frames buf.(i)
        done;
        if n = Array.length buf then loop ()
      in
      loop ())
    r.devs

