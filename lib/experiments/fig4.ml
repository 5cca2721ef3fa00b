module Objective = Dtr_routing.Objective

let run ?cfg ?(seed = 31) ?(targets = [ 0.4; 0.5; 0.6; 0.7; 0.8 ])
    ?(fractions = [ 0.20; 0.40 ]) () =
  Compare.rl_table
    ~title:"Fig 4: impact of high-priority share f on RL (random, load cost, k=10%)"
    ~targets
    (List.map
       (fun f ->
         let spec =
           {
             Scenario.topology = Scenario.Random_topo;
             fraction = f;
             hp = Scenario.Random_density 0.10;
             seed;
           }
         in
         ( Printf.sprintf "RL (f=%.0f%%)" (f *. 100.),
           Compare.sweep ?cfg spec ~model:Objective.Load ~targets ))
       fractions)
