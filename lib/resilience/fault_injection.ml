type config = Chaos.faults

let none = Chaos.no_faults
let configure = Chaos.configure
