(** Extension experiment: delay-bounded admission. Requests carry an
    end-to-end latency deadline; trees violating it are rolled back and
    rejected. Sweeping deadline tightness exposes a tension the paper's
    cost model hides: load-aware routing takes detours, so under tight
    deadlines the min-hop SP baseline keeps more of its admissions. *)

val spec : Spec.t
(** Registered as ["delay"]; [--requests] is the sequence length per
    deadline level (default 400, on a 100-switch network). *)
