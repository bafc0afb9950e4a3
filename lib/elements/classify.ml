(* The classification elements. Each states its push path once, as a
   decision tree (Region.Classify); push, push_batch and the compiled
   body derive from that statement (Element.decision).

   [Classifier], [IPClassifier] and [IPFilter] compile their
   configuration into a tree at configure time and *interpret* it per
   packet (paper Fig. 3a) — the behaviour click-fastclassifier replaces
   with specialized code. [register_fast_classifier] installs a generated
   class whose instances walk the tool's tree as compiled closures
   instead: this is the runtime half of click-fastclassifier, standing in
   for Click's dynamic linking of generated C++. The two kinds differ
   only in the walk and in the work constructor they charge. *)

open Prelude
module Tree = Oclick_classifier.Tree
module Optimize = Oclick_classifier.Optimize
module Compile = Oclick_classifier.Compile

class tree_classifier cls ~compiled ~build name =
  object (self)
    inherit E.decision name
    val mutable tree = Tree.leaf_tree Tree.drop 1
    val mutable dropped = 0
    method class_name = cls
    method! port_count = "1/-"
    method! processing = "h/h"

    method private set_tree t =
      tree <- t;
      let walk, work =
        if compiled then
          let f = Compile.compile_count t in
          ( (fun p ->
              let out, visited = f ~read:(Tree.packet_read p) in
              Tree.packed out visited),
            fun v -> Hooks.W_classify_compiled v )
        else (Tree.classify_packed t, fun v -> Hooks.W_classify_interp v)
      in
      self#state
        (Region.Classify
           {
             cl_tree = t;
             cl_walk = walk;
             cl_charge = (fun v -> self#charge (work v));
             cl_invalid =
               (fun p ->
                 dropped <- dropped + 1;
                 self#drop ~reason:"classified to no output" p);
           })

    initializer self#set_tree tree
    method! configure config = Result.map self#set_tree (build config)

    method! stats =
      (("nodes", Tree.node_count tree)
      :: (if compiled then [] else [ ("depth", Tree.depth tree) ]))
      @ [ ("dropped", dropped) ]
  end

let interpreted cls build =
  def cls ~ports:"1/-" ~processing:"h/h" (fun n ->
      (new tree_classifier cls ~compiled:false n ~build:(fun config ->
           Result.map Optimize.optimize (build config))
        :> E.t))

(* A FastClassifier instance: the tree is already built and optimized by
   the tool, and is baked in. *)
let register_fast_classifier ~class_name (t : Tree.t) =
  def ~replace:true ~ports:"1/-" ~processing:"h/h" class_name (fun n ->
      (new tree_classifier class_name ~compiled:true n ~build:(fun _ -> Ok t)
        :> E.t))

let register () =
  interpreted "Classifier" Oclick_classifier.Pattern.tree_of_config;
  interpreted "IPClassifier" Oclick_classifier.Filter.ipclassifier_tree;
  interpreted "IPFilter" Oclick_classifier.Filter.ipfilter_tree
