(** Per-packet statements of decision elements.

    A decision element (a classifier, a route lookup, a combination
    element — see {!Element.decision}) states what its push path
    {e means} once, as a {!sem}, and writes nothing else per packet.
    Everything that runs packets is derived from that one statement:

    - its scalar [push], [push_batch] and compiled [fuse] body, derived
      in one place by {!Element.decision} (each statement's derived
      closures are built once per configure or table update, never per
      packet);
    - its part in a cross-element region: the FDD fusion pass
      ([lib/fdd], run by {!Oclick_compile} under [~fuse:true]) walks a
      push region over these statements and collapses the whole
      cascade — classifier trees, paint writes and switches, header
      guards, a route lookup — into one forwarding decision diagram.

    Every closure carried here must perform the element's full effect —
    charges, drop reasons, annotation writes — because each derived form
    is required to replay the interpreted run's observable behaviour
    (outcome totals, per-hop obs ledgers, drop reasons) byte for byte.
    Elements that do not expose a statement keep the default ([None]),
    write their own [push], and end any region reaching them; fusion
    never changes semantics, only the decision-evaluation path. *)

module Tree = Oclick_classifier.Tree
module Packet = Oclick_packet.Packet

type sem =
  | Classify of {
      cl_tree : Tree.t;  (** the optimized decision tree the element walks *)
      cl_walk : Packet.t -> int;
          (** the element's own walk of [cl_tree] (interpreted or
              compiled), answering the leaf and the visited count packed
              as {!Tree.classify_packed} does *)
      cl_charge : int -> unit;
          (** charge classification work for [visited] nodes, with the
              element's work constructor *)
      cl_invalid : Packet.t -> unit;
          (** sink for packets classified to a leaf with no output (the
              element's drop accounting) *)
    }
      (** The element routes by a pure decision tree over packet bytes:
          leaf [k] in [0..noutputs) continues on output [k]; any other
          leaf goes to [cl_invalid]. *)
  | Set_paint of int
      (** Writes the paint annotation, then continues on output 0. *)
  | Paint_switch of { ps_invalid : Packet.t -> unit }
      (** Routes by the paint annotation: paint [c] in [0..noutputs)
          continues on output [c], anything else goes to [ps_invalid].
          Folded only when the paint value is statically known on the
          path (a dominating {!Set_paint}); otherwise the region ends
          before this element. *)
  | Guard of {
      gd_shift : int;
          (** bytes pulled from the packet front when the guard passes
              (e.g. Strip); downstream tree offsets are translated by
              this amount *)
      gd_barrier : bool;
          (** the element may rewrite packet bytes or lengths in ways
              offset translation cannot express (e.g. CheckIPHeader's
              padding trim): no further tree tests may be hoisted above
              it, though non-test actions still fuse *)
      gd_run : Packet.t -> bool;
          (** the element's push effect; [false] means the packet was
              consumed or diverted (dropped with the element's own
              reason, or sent down a side output through [output]) and
              the action stops *)
    }
      (** A pass/divert stage that continues on output 0 when [gd_run]
          returns true. *)
  | Mutate of (Packet.t -> unit)
      (** An unconditional effect (annotation writes, clone-and-tee side
          outputs) that always continues on output 0. *)
  | Route of {
      rt_charge : int -> unit;
          (** charge lookup work, with the element's work constructor *)
      rt_make : charge:(int -> unit) -> Packet.t -> int;
          (** [rt_make ~charge] builds the lookup closure once; per
              packet it performs the lookup — reporting its work to
              [charge], rewriting the gateway annotation, accounting
              misses and unconnected-port drops itself — and returns the
              output port, or [-1] when it consumed the packet. *)
    }
      (** A route lookup; in a fused region, a leaf action. *)
