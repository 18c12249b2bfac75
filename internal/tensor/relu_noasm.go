//go:build !amd64

package tensor

// reluAVX exists off amd64 only so that ReLU can call the kernel directly;
// reluSIMD is never set there, so it is never called.
func reluAVX(x *float32, n int) { panic("tensor: reluAVX called off amd64") }
