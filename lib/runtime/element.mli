(** The element framework.

    Element classes are OCaml classes — the direct analogue of Click's C++
    element classes, including real dynamic dispatch on [push]/[pull].
    A class provides its external specification (port counts, processing
    code, flow code: paper §5.3) as methods; the registry extracts it for
    the optimizers.

    Packet transfers go through {!base.output} and {!base.input_pull},
    which report each transfer to the installed {!Hooks.t} — carrying the
    source's {e code class} (shared call sites share branch-predictor
    state, paper §3) and whether the element was specialized by
    [click-devirtualize] (direct calls). *)

type init_ctx = {
  ic_graph : Oclick_graph.Router.t;
  ic_element : int -> t;  (** element by graph index *)
  ic_find : string -> t option;  (** element by name *)
  ic_device : string -> Netdevice.t option;
  ic_index : int;  (** the index of the element being initialized *)
}

(** Context handed to {!base.fuse} by the graph compiler
    ({!Oclick_compile}): [fc_out port] is the compiled connection closure
    for the element's output [port] — calling it has exactly the
    semantics of [output port] on the compiled path (mangle, quarantine,
    hook report, containment). [fc_lean_work] is whether the installed
    hooks ignore {!Hooks.t.on_work} charges, so a fused body may
    specialize the charge away. *)
and fuse_ctx = {
  fc_out : int -> Oclick_packet.Packet.t -> unit;
  fc_lean_work : bool;
}

(* The full element interface (the object type every element is coerced
   to). *)
and t = <
  name : string;
  class_name : string;
  port_count : string;
  processing : string;
  flow_code : string;
  code_class : string;
  set_code_class : string -> unit;
  direct_dispatch : bool;
  set_direct_dispatch : bool -> unit;
  configure : string -> (unit, string) result;
  initialize : init_ctx -> (unit, string) result;
  index : int;
  set_index : int -> unit;
  set_hooks : Hooks.t -> unit;
  set_nports : inputs:int -> outputs:int -> unit;
  ninputs : int;
  noutputs : int;
  connect_output : int -> t -> int -> unit;
  connect_input : int -> t -> int -> unit;
  push : int -> Oclick_packet.Packet.t -> unit;
  pull : int -> Oclick_packet.Packet.t option;
  push_batch : int -> Oclick_packet.Packet.t array -> unit;
  pull_batch : int -> Oclick_packet.Packet.t array -> int;
  output : int -> Oclick_packet.Packet.t -> unit;
  input_pull : int -> Oclick_packet.Packet.t option;
  batch_size : int;
  set_batch_size : int -> unit;
  set_pool : Oclick_packet.Packet.Pool.t option -> unit;
  fuse : fuse_ctx -> (Oclick_packet.Packet.t -> unit) option;
  region_sem : Region.sem option;
  set_fused :
    out:(Oclick_packet.Packet.t -> unit) array ->
    out_batch:(Oclick_packet.Packet.t array -> unit) array ->
    unit;
  degrade_cells : bool ref * int ref;
  mangle_fn : (Oclick_packet.Packet.t -> unit) option;
  wants_task : bool;
  run_task : bool;
  stats : (string * int) list;
  read_handler : string -> string option;
  write_handler : string -> string -> (unit, string) result;
  is_quarantined : bool;
  fault_count : int;
  set_quarantine_threshold : int -> unit;
  set_mangle : (Oclick_packet.Packet.t -> unit) option -> unit;
  set_clock : (unit -> int) -> unit;
  record_fault : string -> unit;
  drop : reason:string -> Oclick_packet.Packet.t -> unit;
  note_ok : unit >

(** Verdict of a {!simple_action} element's in-place fast path. All
    three constructors are immediates, so keep/drop travels without
    boxing a [Packet.t option] per packet on the batched and fused
    transfer paths; [V_defer] routes through the element's
    option-returning [action]. *)
type verdict = V_keep | V_drop | V_defer

class virtual base : string -> object
  val mutable clock : unit -> int
  (** Nanosecond time source for aging element state
      ({!Aged_table}); installed driver-wide via {!set_clock}. The
      default never advances ([fun () -> 0]), so state never ages
      unless a clock is provided. *)

  method name : string
  method virtual class_name : string

  method code_class : string
  (** The class whose {e code} performs this element's packet transfers;
      equals {!class_name} unless devirtualization installed a specialized
      class. Transfer call sites are keyed by this. *)

  method set_code_class : string -> unit
  method direct_dispatch : bool
  method set_direct_dispatch : bool -> unit

  (** {2 Specification (overridden per class)} *)

  method port_count : string
  (** Default ["1/1"]. *)

  method processing : string
  (** Default ["a/a"]. *)

  method flow_code : string
  (** Default ["x/x"]. *)

  (** {2 Lifecycle} *)

  method configure : string -> (unit, string) result
  (** Parse the configuration string; default accepts only [""] . *)

  method initialize : init_ctx -> (unit, string) result

  (** {2 Plumbing (managed by the driver)} *)

  method index : int
  method set_index : int -> unit
  method set_hooks : Hooks.t -> unit
  method set_nports : inputs:int -> outputs:int -> unit
  method ninputs : int
  method noutputs : int
  method connect_output : int -> t -> int -> unit
  method connect_input : int -> t -> int -> unit

  (** {2 Packet handling (overridden per class)} *)

  method push : int -> Oclick_packet.Packet.t -> unit
  (** Default: counts the packet as dropped. *)

  method pull : int -> Oclick_packet.Packet.t option
  (** Default: [None]. *)

  (** {2 Batched transfer path}

      The hot-path alternative to per-packet [push]/[pull]: a whole
      array of packets crosses a hookup in one dynamic dispatch and one
      {!Hooks.t.on_transfer_batch} report. Semantics are preserved — the
      default implementations loop the scalar methods under the same
      fault containment, so every element class works under batching;
      hot elements override them with loops that hoist config lookups,
      hook reporting, and dispatch out of the per-packet body.

      Contract: [push_batch] implementations contain their own
      per-packet faults (use [guard], or pattern-match exceptions as the
      default does) — drop reasons match the scalar path (["element
      fault"], ["quarantined element"]), so per-reason drop totals are
      identical in both modes. The batch array is scratch owned by the
      callee once handed over: callers must not rely on its contents
      after [push_batch]/[output_batch] returns. *)

  method push_batch : int -> Oclick_packet.Packet.t array -> unit
  (** Process a whole batch arriving on a port. Default: loops the
      scalar {!push} with per-packet fault containment. A {!decision}
      element derives it from its statement instead. *)

  method pull_batch : int -> Oclick_packet.Packet.t array -> int
  (** Fill-style batched pull: write up to [Array.length dst] packets
      into the array from the front and return how many. Default: loops
      the scalar {!pull}, stopping at the first refusal. *)

  method batch_size : int
  (** Preferred batch size for this element's task loops; 1 = scalar. *)

  method set_batch_size : int -> unit
  (** Set by the driver ([clamped to >= 1]). *)

  method set_pool : Oclick_packet.Packet.Pool.t option -> unit
  (** Install a recycling packet pool; source elements then allocate
      through it (see {!Oclick_packet.Packet.Pool}). *)

  (** {2 Graph compilation}

      The runtime graph compiler ({!Oclick_compile}) replaces interpreted
      dispatch with direct-call closures. [fuse] is the element's side of
      the bargain: return a closure with exactly the semantics of [push]
      (for {e any} input port), transferring downstream through
      [ctx.fc_out] instead of {!output}. A {!decision} element never
      writes one: its [fuse] is derived from its statement. Elements
      whose [push] is port-sensitive, stateful across ports, or
      otherwise not expressible this way keep the default ([None]) and
      the compiler falls back to dynamic dispatch into them —
      compilation never changes semantics, only the call path. *)

  method fuse : fuse_ctx -> (Oclick_packet.Packet.t -> unit) option
  (** Default [None]: not fusable, the compiler calls [push] dynamically. *)

  method region_sem : Region.sem option
  (** The element's push semantics in match-action terms, for the FDD
      cross-element fusion pass (see {!Region}); a {!decision} element's
      one statement. Default [None]: the element is opaque to fusion and
      ends any region reaching it. *)

  method set_fused :
    out:(Oclick_packet.Packet.t -> unit) array ->
    out_batch:(Oclick_packet.Packet.t array -> unit) array ->
    unit
  (** Install compiled connection closures, one per output port;
      {!output} and {!output_batch} then jump straight into them. Called
      only by the graph compiler. *)

  method degrade_cells : bool ref * int ref
  (** The quarantine flag and consecutive-fault counter as raw cells, so
      compiled connections can check and clear them without per-packet
      method dispatch. *)

  method mangle_fn : (Oclick_packet.Packet.t -> unit) option
  (** The installed in-flight fault injector (see {!set_mangle}). *)

  method wants_task : bool
  (** Whether the scheduler should call {!run_task}; default [false]. *)

  method run_task : bool
  (** One scheduler quantum; returns whether any work was done. *)

  method stats : (string * int) list
  (** Named counters for tests and reports; default []. *)

  method read_handler : string -> string option
  (** Click-style read handlers. The default exposes every {!stats}
      counter by name, plus ["name"] and ["class"]. *)

  method write_handler : string -> string -> (unit, string) result
  (** Click-style write handlers for run-time control (e.g. a Queue's
      ["capacity"], a source's ["active"]). Default: no handlers. *)

  (** {2 For subclasses} *)

  method output : int -> Oclick_packet.Packet.t -> unit
  (** Transfer a packet downstream (a push "virtual call"). Unconnected
      ports drop and report. *)

  method input_pull : int -> Oclick_packet.Packet.t option
  (** Request a packet from upstream (a pull "virtual call"). *)

  method output_batch : int -> Oclick_packet.Packet.t array -> unit
  (** Transfer a whole batch downstream: one quarantine check, one
      {!Hooks.t.on_transfer_batch} report, one [push_batch] dispatch.
      Per-packet mangle (fault injection) still applies. A batch of one
      falls back to the scalar {!output}. *)

  method input_pull_batch : int -> Oclick_packet.Packet.t array -> int
  (** Batched upstream request: fills the array from the front via the
      peer's [pull_batch], reports one batched transfer, returns the
      count. *)

  method private guard : (Oclick_packet.Packet.t -> unit) -> Oclick_packet.Packet.t -> unit
  (** [guard f p] runs [f p] under scalar-equivalent per-packet fault
      containment — the building block for [push_batch] overrides. *)

  method private sub_batch : Oclick_packet.Packet.t array -> int -> Oclick_packet.Packet.t array
  (** [sub_batch batch m] is the first [m] packets of [batch], reusing
      the array itself when [m = Array.length batch]. *)

  method private scratch : int -> Oclick_packet.Packet.t array
  (** A reusable per-element batch array of at least [n] slots, for task
      loops (contents are garbage; fill before use). *)

  method private alloc : ?headroom:int -> int -> Oclick_packet.Packet.t
  (** Pool-aware packet allocation for source elements. *)

  method private recycle : Oclick_packet.Packet.t -> unit
  (** Return a dead packet to the installed pool (no-op without one). *)

  method charge : Hooks.work -> unit

  method lean_work : bool
  (** Whether the installed work hook is the null one: per-packet charge
      sites test this first so the [Hooks.work] constructor isn't
      allocated just to feed a no-op hook. *)

  method drop : reason:string -> Oclick_packet.Packet.t -> unit

  method spawn : Oclick_packet.Packet.t -> unit
  (** Report a packet born inside this element (clone, ICMP error, IP
      fragment, ARP query) so conservation accounting can balance. *)

  (** {2 Degradation layer}

      Packet transfers through {!output}/{!input_pull} contain exceptions
      escaping the peer element: the fault is reported via
      {!Hooks.on_fault}, the packet becomes an accounted drop
      (["element fault"]), and an element failing
      {!set_quarantine_threshold} consecutive times is quarantined — the
      runtime mirror of [click-undead]: transfers into it become
      accounted drops (["quarantined element"]) and its task is no
      longer scheduled. [Out_of_memory], [Stack_overflow] and [Sys.Break]
      are never contained. *)

  method is_quarantined : bool
  method fault_count : int
  (** Exceptions contained so far on behalf of this element. *)

  method set_quarantine_threshold : int -> unit
  (** Consecutive faults before quarantine; [0] disables. Default 8. *)

  method set_mangle : (Oclick_packet.Packet.t -> unit) option -> unit
  (** Install an in-flight corruption function applied to every packet
      this element transfers downstream (fault injection). *)

  method set_clock : (unit -> int) -> unit
  (** Install the nanosecond time source stateful elements age by —
      the testbed's simulated clock, or the wall clock in live runs. *)

  method record_fault : string -> unit
  method note_ok : unit
end

(** Click's [simple_action] sugar: one agnostic input, one agnostic
    output, a per-packet transformation. Both [push] and [pull] are
    derived from {!action}, so the element genuinely works in either
    context. (The shared dispatch site this creates in real Click is what
    confuses the branch predictor — paper §3 footnote; the cycle model
    accounts for it per class.) *)
class virtual simple_action : string -> object
  inherit base

  method virtual private action :
    Oclick_packet.Packet.t -> Oclick_packet.Packet.t option
  (** Transform a packet; [None] means the element consumed (dropped) it. *)

  method private inplace : Oclick_packet.Packet.t -> verdict
  (** In-place fast path, checked before {!action} on every transfer
      path. The default answers {!V_defer} (route through [action]). An
      element whose action never substitutes a different packet should
      put its real body here — mutate the packet, answer {!V_keep} or
      {!V_drop} — and define [action] as {!action_of_inplace}: the
      batched and fused paths then move packets without boxing a
      [Packet.t option] per packet. *)

  method private action_of_inplace :
    Oclick_packet.Packet.t -> Oclick_packet.Packet.t option
  (** The delegation body for in-place elements' [action]: runs
      {!inplace} and boxes its verdict, for callers that need the option
      form. *)
end

val consumed : int
(** Sentinel output port for a packet its element already consumed
    (dropped or diverted): {!decision}'s run emission skips it. *)

(** A decision element: a classifier, a route lookup, a combination
    element — an element whose push path is stated once as a
    {!Region.Classify}, {!Region.Route} or {!Region.Guard} statement
    (the other statements belong to [simple_action] elements, which
    derive their forms from [action]; [state] rejects them). The element
    calls [state] with its statement (once at
    construction, and again whenever configure or a table update
    changes it) and writes configure, stats and handlers; nothing else.
    This class derives everything that runs packets from the statement:

    - [push]: perform the statement, charging its work unless the hooks
      are lean, and continue on the output it answers;
    - [push_batch]: for a classification or a lookup, decide the whole
      batch, charge the summed work once, and forward same-output runs
      as single batched transfers; other statements loop the scalar
      [push] (they may divert packets down side outputs mid-statement);
    - [fuse]: [push] over compiled connections — for a classification,
      the tree compiled to nested closures
      ({!Oclick_classifier.Codegen.closures});
    - [region_sem]: the statement itself, for the FDD pass.

    The forms are equivalent by construction — one statement, one
    derivation — and the differential suites check it mode by mode. *)
class virtual decision : string -> object
  inherit base

  method private state : Region.sem -> unit
  (** Install the element's statement and rebuild the derived per-packet
      steps from it. Never per packet: closures in the statement read
      live element state (a route table, a configured color) by
      themselves. *)

  method private ports : int -> int array
  (** The grow-only per-element port scratch, at least [n] slots, for a
      hand-written [push_batch] kernel (see {!emit_runs}). *)

  method private emit_runs :
    int array ->
    Oclick_packet.Packet.t array ->
    int ->
    on_invalid:(Oclick_packet.Packet.t -> unit) ->
    unit
  (** [emit_runs ports batch n ~on_invalid] forwards the first [n]
      packets of [batch], packet [i] on output [ports.(i)]: contiguous
      same-port runs as single transfers, {!consumed} ports skipped,
      out-of-range ports to [on_invalid]. *)
end

val configure_error : string -> ('a, string) result
(** Shorthand for [Error msg] in configure methods. *)

val fatal : exn -> bool
(** Exceptions the degradation layer must never contain:
    [Out_of_memory], [Stack_overflow], [Sys.Break]. *)

val force_scratch_placeholder : unit -> unit
(** Force the lazy fill value shared by every element's scratch batch
    array. The multi-domain runner calls this before spawning domains:
    [Lazy.force] is not safe to race, and leaving the value lazy (rather
    than making it eager) keeps packet-id sequences — and the golden
    traces derived from them — unchanged for single-domain runs. *)
