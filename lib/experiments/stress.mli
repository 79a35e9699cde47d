(** Stress sweep: Online_CP on the Rocketfuel-scale topologies (AS1755,
    AS4755) under increasing offered load, tabulating where the requests
    went — admitted, or rejected for which reason. The columns are read
    straight from the algorithm's own ["online_cp.admitted"] and
    ["online_cp.rejected.*"] counters (as deltas around each run), so the
    tables double as a check that the telemetry an operator would scrape
    matches the admission statistics. *)

val spec : Spec.t
(** Registered as ["stress"]; figures [stressA] (AS1755) and [stressB]
    (AS4755). [--requests] sets the largest load level; the sweep runs
    it and its three halvings (at least 1 each), each distinct level
    once. *)
