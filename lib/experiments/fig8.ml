module Objective = Dtr_routing.Objective
module Highpri = Dtr_traffic.Highpri

let run ?cfg ?(seed = 47) ?(targets = [ 0.4; 0.5; 0.6; 0.7; 0.8 ]) ~model () =
  Compare.rl_table
    ~title:
      (Printf.sprintf
         "Fig 8: sink model, Uniform vs Local clients (power-law, %s cost, f=20%%, k=10%%)"
         (Objective.model_name model))
    ~targets
    (List.map
       (fun (name, placement) ->
         let spec =
           {
             Scenario.topology = Scenario.Power_law;
             fraction = 0.20;
             hp = Scenario.Sinks { sinks = 3; density = 0.10; placement };
             seed;
           }
         in
         (Printf.sprintf "RL (%s)" name, Compare.sweep ?cfg spec ~model ~targets))
       [ ("Uniform", Highpri.Uniform); ("Local", Highpri.Local) ])
