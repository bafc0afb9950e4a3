(* Cross-element match-action fusion: see oclick_fdd.mli for the
   overview. The builder symbolically executes a push region over the
   elements' Region.sem descriptions, grafting every classifier tree it
   meets (offsets translated by the accumulated Strip shift) into one
   forwarding decision diagram whose leaves are fused action sequences.

   Exactness is the whole game. Every leaf action replays the
   interpreted transfer protocol hop by hop — quarantine check and
   transfer report on entering each collapsed element, the element's
   effect under the same fault containment the interpreted connection
   provides, classification work charged with the per-path visited
   count the interpreted walk would have counted — so outcome totals,
   drop reasons, and per-hop obs ledgers are byte-identical to the
   interpreted run. Tests are hoisted above effects, which is sound
   because (a) sem effects never change bytes a hoisted test reads
   (Strip only shifts, and shifted offsets read the same bytes through
   the shared zero-fill reader, Tree.packet_read), (b) elements that
   can rewrite bytes or lengths mark themselves barriers and stop
   further hoisting, and (c) a failed guard stops its leaf action
   before any downstream effect, and every leaf sharing that action
   prefix behaves identically up to the failure point. *)

module Packet = Oclick_packet.Packet
module Tree = Oclick_classifier.Tree
module Codegen = Oclick_classifier.Codegen
module Element = Oclick_runtime.Element
module Region = Oclick_runtime.Region
module Hooks = Oclick_runtime.Hooks

type ctx = {
  fd_elements : Element.t array;
  fd_out : (int * int) option array array;
  fd_conn : int -> int -> Packet.t -> unit;
  fd_lean_transfer : bool;
  fd_lean_work : bool;
  fd_on_transfer : Hooks.transfer -> Packet.t -> unit;
}

type region = {
  rg_entry : string;
  rg_members : string list;
  rg_nodes : int;
  rg_actions : int;
}

(* Path expansion of classifier DAGs can blow up; past these budgets the
   region is abandoned and the compiler falls back to per-element
   fusion, which is always available. *)
let node_budget = 4096
let action_budget = 512

exception Too_big

(* A leaf action is a sequence of op keys plus an exit. Keys (not
   closures) so structurally identical actions — common once charges
   are specialized away under lean hooks — share one compiled body. *)
type opk =
  | K_enter of int * int * int * int  (* src, src port, dst, dst port *)
  | K_charge of int * int  (* classifier element, visited count *)
  | K_eff of int  (* the element's sem effect *)
  | K_invalid of int  (* the element's classified-to-no-output sink *)

type exitk =
  | X_conn of int * int  (* leave through a compiled connection *)
  | X_drop of int * int  (* unconnected port outside the wiring table *)
  | X_route of int  (* route-lookup leaf *)
  | X_none  (* path already consumed by a K_invalid *)

(* Path constraints for redundancy elimination — the optimization that
   makes a cascade collapse rather than merely concatenate. A tree test
   is identified by its (translated offset, mask) read; along one
   diagram path each read has either a known masked value (we sit under
   its yes branch) or a set of excluded values (under no branches). A
   regrafted test that repeats a decided read resolves immediately, so
   tests repeated across cascaded elements cost nothing per packet.
   Sound because reads are pure (zero-fill past the end included) and
   byte-mutating stages are barriers that stop tree absorption. *)
module FMap = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type fact = Known of int | Excluded of int list

let build ctx entry =
  let el i = ctx.fd_elements.(i) in
  let nodes = ref [] in
  let ncount = ref 0 in
  let interned : (int * int * int * Tree.target * Tree.target, Tree.target)
      Hashtbl.t =
    Hashtbl.create 64
  in
  let mk_node ~offset ~mask ~value yes no =
    if yes = no then yes
    else begin
      let key = (offset, mask, value, yes, no) in
      match Hashtbl.find_opt interned key with
      | Some t -> t
      | None ->
          if !ncount >= node_budget then raise Too_big;
          let j = !ncount in
          incr ncount;
          nodes := { Tree.offset; mask; value; yes; no } :: !nodes;
          let t = Tree.Node j in
          Hashtbl.add interned key t;
          t
    end
  in
  let actions = ref [] in
  let acount = ref 0 in
  let action_memo : (opk list * exitk, int) Hashtbl.t = Hashtbl.create 16 in
  let leaf_of ops exitk =
    let key = (List.rev ops, exitk) in
    match Hashtbl.find_opt action_memo key with
    | Some k -> Tree.Leaf k
    | None ->
        if !acount >= action_budget then raise Too_big;
        let k = !acount in
        incr acount;
        actions := key :: !actions;
        Hashtbl.add action_memo key k;
        Tree.Leaf k
  in
  let members = Hashtbl.create 8 in
  (* The symbolic state: [shift] translates downstream tree offsets past
     the Strips seen so far; [paint] is the statically known paint color
     (for folding PaintSwitch); [barrier] forbids hoisting further tests
     once a byte/length-mutating stage was absorbed; [path] breaks
     cycles; [ops] is the reversed action prefix. *)
  let rec enter_element ~from:(i, port) (j, dst_port) ~shift ~paint ~barrier
      ~path ~ops ~facts =
    let absorbable =
      (not (List.mem j path))
      && (el i)#mangle_fn = None
      &&
      match (el j)#region_sem with
      | None -> false
      | Some (Region.Classify _) -> not barrier
      | Some (Region.Paint_switch _) -> paint <> None
      | Some _ -> true
    in
    if not absorbable then leaf_of ops (X_conn (i, port))
    else begin
      Hashtbl.replace members j ();
      let ops = K_enter (i, port, j, dst_port) :: ops in
      run_element j ~shift ~paint ~barrier ~path:(j :: path) ~ops ~facts
    end
  and run_element j ~shift ~paint ~barrier ~path ~ops ~facts =
    match (el j)#region_sem with
    | None -> assert false (* only absorbable elements are run *)
    | Some (Region.Classify { cl_tree; _ }) ->
        graft j cl_tree cl_tree.Tree.root 0 ~shift ~paint ~barrier ~path ~ops
          ~facts
    | Some (Region.Set_paint c) ->
        continue j 0 ~shift ~paint:(Some c) ~barrier ~path
          ~ops:(K_eff j :: ops) ~facts
    | Some (Region.Paint_switch _) -> (
        match paint with
        | Some c when c >= 0 && c < (el j)#noutputs ->
            continue j c ~shift ~paint ~barrier ~path ~ops ~facts
        | Some _ -> leaf_of (K_invalid j :: ops) X_none
        | None -> assert false)
    | Some (Region.Guard { gd_shift; gd_barrier; _ }) ->
        (* A barrier may rewrite bytes, so facts about reads stop being
           true past it. (Tree absorption stops there too, so the facts
           could never be consulted — dropping them keeps the invariant
           local.) *)
        continue j 0 ~shift:(shift + gd_shift) ~paint
          ~barrier:(barrier || gd_barrier) ~path ~ops:(K_eff j :: ops)
          ~facts:(if gd_barrier then FMap.empty else facts)
    | Some (Region.Mutate _) ->
        continue j 0 ~shift ~paint ~barrier ~path ~ops:(K_eff j :: ops) ~facts
    | Some (Region.Route _) -> leaf_of ops (X_route j)
  and continue j port ~shift ~paint ~barrier ~path ~ops ~facts =
    let outs = ctx.fd_out.(j) in
    if port < 0 || port >= Array.length outs then
      leaf_of ops (X_drop (j, port))
    else
      match outs.(port) with
      | None -> leaf_of ops (X_conn (j, port))
      | Some (m, mport) ->
          enter_element ~from:(j, port) (m, mport) ~shift ~paint ~barrier
            ~path ~ops ~facts
  and graft j tree target visited ~shift ~paint ~barrier ~path ~ops ~facts =
    match target with
    | Tree.Leaf k ->
        let ops =
          if ctx.fd_lean_work then ops else K_charge (j, visited) :: ops
        in
        if k >= 0 && k < (el j)#noutputs then
          continue j k ~shift ~paint ~barrier ~path ~ops ~facts
        else leaf_of (K_invalid j :: ops) X_none
    | Tree.Node ni -> (
        let n = tree.Tree.nodes.(ni) in
        let offset = n.Tree.offset + shift in
        let key = (offset, n.Tree.mask) in
        let v = n.Tree.value in
        (* A decided test is pruned from the diagram but still counted in
           [visited]: the element's own interpreted walk visits the node
           regardless, and the K_charge must replay that exact count. *)
        let decided =
          match FMap.find_opt key facts with
          | Some (Known w) -> Some (w = v)
          | Some (Excluded ws) -> if List.mem v ws then Some false else None
          | None -> None
        in
        match decided with
        | Some true ->
            graft j tree n.Tree.yes (visited + 1) ~shift ~paint ~barrier
              ~path ~ops ~facts
        | Some false ->
            graft j tree n.Tree.no (visited + 1) ~shift ~paint ~barrier ~path
              ~ops ~facts
        | None ->
            let excluded =
              match FMap.find_opt key facts with
              | Some (Excluded ws) -> ws
              | _ -> []
            in
            let yes =
              graft j tree n.Tree.yes (visited + 1) ~shift ~paint ~barrier
                ~path ~ops
                ~facts:(FMap.add key (Known v) facts)
            in
            let no =
              graft j tree n.Tree.no (visited + 1) ~shift ~paint ~barrier
                ~path ~ops
                ~facts:(FMap.add key (Excluded (v :: excluded)) facts)
            in
            mk_node ~offset ~mask:n.Tree.mask ~value:v yes no)
  in
  match (el entry)#region_sem with
  | None | Some (Region.Paint_switch _) | Some (Region.Route _) ->
      (* No cascade can start here: unknown paint can't fold, and a
         bare route lookup is already one fused closure via its own
         [fuse]. *)
      None
  | Some _ -> (
      match
        run_element entry ~shift:0 ~paint:None ~barrier:false ~path:[ entry ]
          ~ops:[] ~facts:FMap.empty
      with
      | exception Too_big -> None
      | root ->
          if Hashtbl.length members = 0 then
            (* The region never crossed an element boundary; the
               element's own fuse body is the specialized (and cheaper)
               form of the same semantics. *)
            None
          else begin
            (* --- compile op keys to closures, memoized per key ------- *)
            let charge_of j =
              match (el j)#region_sem with
              | Some (Region.Classify { cl_charge; _ }) -> cl_charge
              | _ -> assert false
            in
            let invalid_of j =
              match (el j)#region_sem with
              | Some (Region.Classify { cl_invalid; _ }) -> cl_invalid
              | Some (Region.Paint_switch { ps_invalid }) -> ps_invalid
              | _ -> assert false
            in
            let eff_of j =
              match (el j)#region_sem with
              | Some (Region.Set_paint c) ->
                  fun p ->
                    (Packet.anno p).Packet.paint <- c;
                    true
              | Some (Region.Guard { gd_run; _ }) -> gd_run
              | Some (Region.Mutate f) ->
                  fun p ->
                    f p;
                    true
              | _ -> assert false
            in
            (* Per-packet fault containment identical to the compiled
               connection's: the fault is recorded against the element
               whose code raised, the packet becomes an accounted
               "element fault" drop of that element, and the leaf action
               stops. *)
            let contain j f =
              let dst = el j in
              let _, consec = dst#degrade_cells in
              fun p ->
                match f p with
                | continue ->
                    consec := 0;
                    continue
                | exception e when not (Element.fatal e) ->
                    dst#record_fault (Printexc.to_string e);
                    dst#drop ~reason:"element fault" p;
                    false
            in
            let op_tbl : (opk, Packet.t -> bool) Hashtbl.t =
              Hashtbl.create 16
            in
            let op_fn key =
              match Hashtbl.find_opt op_tbl key with
              | Some f -> f
              | None ->
                  let f =
                    match key with
                    | K_enter (i, port, j, dst_port) ->
                        let src = el i and dst = el j in
                        let quarantined, consec = dst#degrade_cells in
                        if ctx.fd_lean_transfer then
                          fun p ->
                            if !quarantined then begin
                              src#drop ~reason:"quarantined element" p;
                              false
                            end
                            else begin
                              consec := 0;
                              true
                            end
                        else
                          let record =
                            {
                              Hooks.tr_src_idx = src#index;
                              tr_src_class = src#code_class;
                              tr_src_port = port;
                              tr_dst_idx = dst#index;
                              tr_dst_class = dst#class_name;
                              tr_dst_port = dst_port;
                              tr_direct = src#direct_dispatch;
                              tr_pull = false;
                            }
                          in
                          let on_transfer = ctx.fd_on_transfer in
                          fun p ->
                            if !quarantined then begin
                              src#drop ~reason:"quarantined element" p;
                              false
                            end
                            else begin
                              on_transfer record p;
                              consec := 0;
                              true
                            end
                    | K_charge (j, visited) ->
                        let charge = charge_of j in
                        contain j (fun _p ->
                            charge visited;
                            true)
                    | K_eff j -> contain j (eff_of j)
                    | K_invalid j ->
                        let invalid = invalid_of j in
                        contain j (fun p ->
                            invalid p;
                            false)
                  in
                  Hashtbl.replace op_tbl key f;
                  f
            in
            let exit_fn = function
              | X_conn (i, port) -> ctx.fd_conn i port
              | X_drop (j, port) ->
                  let reason = Printf.sprintf "unconnected output %d" port in
                  fun p -> (el j)#drop ~reason p
              | X_route j -> (
                  (* The route element's own compiled body (derived from
                     the same statement), under the connection's
                     containment. *)
                  match
                    (el j)#fuse
                      {
                        Element.fc_out = ctx.fd_conn j;
                        fc_lean_work = ctx.fd_lean_work;
                      }
                  with
                  | Some f ->
                      let run =
                        contain j (fun p ->
                            f p;
                            true)
                      in
                      fun p -> ignore (run p)
                  | None -> assert false)
              | X_none -> fun _ -> ()
            in
            let compile_action (ops, exitk) =
              let steps = Array.of_list (List.map op_fn ops) in
              let exit = exit_fn exitk in
              let n = Array.length steps in
              if n = 0 then exit
              else
                fun p ->
                  let rec go i =
                    if i >= n then exit p else if steps.(i) p then go (i + 1)
                  in
                  go 0
            in
            let action_arr =
              Array.map compile_action
                (Array.of_list (List.rev !actions))
            in
            let fused =
              {
                Tree.nodes = Array.of_list (List.rev !nodes);
                root;
                noutputs = !acount;
              }
            in
            let body =
              Codegen.closures fused ~leaf:(fun k ->
                  let act = action_arr.(k) in
                  fun p _visited -> act p)
            in
            let member_names =
              List.sort compare (Hashtbl.fold (fun j () acc -> j :: acc) members [])
              |> List.map (fun j -> (el j)#name)
            in
            Some
              ( body,
                {
                  rg_entry = (el entry)#name;
                  rg_members = member_names;
                  rg_nodes = !ncount;
                  rg_actions = !acount;
                } )
          end)
