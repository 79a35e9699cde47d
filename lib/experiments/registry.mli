(** The experiment registry: every family's {!Spec.t}, in presentation
    order. The CLI enumerates this list instead of hard-coding figure
    names, so registering a spec here is all it takes to appear as an
    [nfvm] subcommand and in the [all] run. *)

val all : Spec.t list
(** Every registered family: fig5–fig9, ablation, dynamic, batch, delay,
    tables, stress, churn. *)
