(* The one list every frontend enumerates. Order is presentation order:
   the paper's figures first, then the ablations and extensions, then
   the stress and churn telemetry sweeps. *)
let all : Spec.t list =
  [
    Fig5.spec;
    Fig6.spec;
    Fig7.spec;
    Fig8.spec;
    Fig9.spec;
    Ablation.spec;
    Dynamic_load.spec;
    Batch_order.spec;
    Delay_exp.spec;
    Table_exp.spec;
    Stress.spec;
    Churn.churn;
    Churn.dynamic_churn;
    Churn.avail;
    Churn.restore;
  ]
