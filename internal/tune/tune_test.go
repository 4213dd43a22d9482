package tune

import "testing"

func TestColBlock(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		cols, nb, workers, cb int
	}{
		{"sequential default", 1000, 32, 1, 128},
		{"sequential wide nb", 1000, 150, 1, 150},
		{"clamped to cols", 10, 32, 1, 10},
		{"zero cols", 0, 32, 1, 128},
		{"parallel splits work", 256, 32, 4, 32}, // 256/(4·4) = 16 → floor 32
		{"parallel keeps floor", 128, 16, 8, 32},
		{"parallel shrinks the base", 1024, 48, 4, 64}, // 1024/16 = 64
		{"parallel large stays at the base", 4096, 32, 4, 128},
		{"nb dominates in parallel", 4096, 160, 2, 160}, // 4096/8=512 ≥ 160
		{"tiny problem", 3, 8, 4, 3},
	} {
		if got := ColBlock(tc.cols, tc.nb, tc.workers); got != tc.cb {
			t.Errorf("%s: ColBlock(%d,%d,%d)=%d, want %d",
				tc.name, tc.cols, tc.nb, tc.workers, got, tc.cb)
		}
	}
}

func TestColBlockInvariants(t *testing.T) {
	for cols := 1; cols <= 200; cols += 13 {
		for _, nb := range []int{1, 8, 40, 150} {
			for workers := 1; workers <= 9; workers++ {
				cb := ColBlock(cols, nb, workers)
				if cb < 1 || cb > cols {
					t.Fatalf("ColBlock(%d,%d,%d)=%d out of [1,%d]", cols, nb, workers, cb, cols)
				}
			}
		}
	}
}
