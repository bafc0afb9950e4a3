(* Per-packet statements of decision elements: the one description of a
   push path that Element.decision derives push, push_batch and fuse
   from, and that lib/fdd fuses across elements. See region.mli. *)

module Tree = Oclick_classifier.Tree
module Packet = Oclick_packet.Packet

type sem =
  | Classify of {
      cl_tree : Tree.t;
      cl_walk : Packet.t -> int;
      cl_charge : int -> unit;
      cl_invalid : Packet.t -> unit;
    }
  | Set_paint of int
  | Paint_switch of { ps_invalid : Packet.t -> unit }
  | Guard of {
      gd_shift : int;
      gd_barrier : bool;
      gd_run : Packet.t -> bool;
    }
  | Mutate of (Packet.t -> unit)
  | Route of {
      rt_charge : int -> unit;
      rt_make : charge:(int -> unit) -> Packet.t -> int;
    }
