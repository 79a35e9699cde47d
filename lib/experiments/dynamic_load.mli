(** Extension experiment: steady-state acceptance under request
    departures (sessions with finite holding times), sweeping the
    offered load. The paper's model holds resources forever; with
    departures the same admission policies reach a steady state whose
    acceptance ratio separates load-aware from load-oblivious routing. *)

val spec : Spec.t
(** Registered as ["dynamic"]; [--requests] maps to the arrival count.
    Acceptance ratio and time-averaged utilisation vs offered load
    (expected concurrent sessions), for Online_CP (both threshold
    variants) and SP. Defaults: n = 100 switches, 2 000 arrivals per
    point. *)
