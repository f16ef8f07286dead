module convgpu/bench

go 1.22

require convgpu v0.0.0

replace convgpu => ../
