module Objective = Dtr_routing.Objective

let run ?cfg ?(seed = 37) ?(targets = [ 0.5; 0.6; 0.7; 0.8 ])
    ?(densities = [ 0.10; 0.30 ]) ~model () =
  Compare.rl_table
    ~title:
      (Printf.sprintf
         "Fig 5: impact of HP SD-pair density k on RL (random, %s cost, f=30%%)"
         (Objective.model_name model))
    ~targets
    (List.map
       (fun k ->
         let spec =
           {
             Scenario.topology = Scenario.Random_topo;
             fraction = 0.30;
             hp = Scenario.Random_density k;
             seed;
           }
         in
         ( Printf.sprintf "RL (k=%.0f%%)" (k *. 100.),
           Compare.sweep ?cfg spec ~model ~targets ))
       densities)
